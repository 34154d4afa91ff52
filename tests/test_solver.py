"""PSOR reference solver, penalization, complementarity certification."""

import numpy as np
import pytest
import scipy.sparse.linalg as spla

import signorini as sg
import signorini.solver as solver_mod
from signorini.errors import InvalidParameterError, NonconvergedError
from signorini.operator import energy
from signorini.solver import near_optimal_omega

from conftest import graded_grid, profile_boundary, solved_profile


# -- penalty family -----------------------------------------------------------


def test_penalty_zero_for_nonnegative():
    assert sg.penalty(0.0, 0.1) == 0.0
    assert sg.penalty(1.0, 0.1) == 0.0


@pytest.mark.parametrize("eps", [0.5, 0.1, 1e-2, 1e-3])
def test_penalty_branch_junction_value(eps):
    # both branches agree at s = -2 eps^2 with value -eps
    assert sg.penalty(-2 * eps**2, eps) == pytest.approx(-eps, rel=1e-12)


def test_penalty_linear_branch_arithmetic():
    assert sg.penalty(-0.5, 0.1) == pytest.approx(0.1 - 0.5 / 0.1)
    assert sg.penalty(-0.5, 0.1) == pytest.approx(-4.9)


def test_penalty_is_c1_monotone_nonpositive():
    eps = 0.07
    s = np.linspace(-4 * eps**2, eps, 4001)
    vals = sg.penalty(s, eps)
    ders = sg.penalty_derivative(s, eps)
    assert np.all(vals <= 1e-15)
    assert np.all(ders >= 0)
    # numerical derivative matches the analytic one across the junctions
    # (curvature of the bridge is 1/(2 eps^3), bounding the central-diff error)
    num = np.gradient(vals, s)
    ds = s[1] - s[0]
    assert np.abs(num[2:-2] - ders[2:-2]).max() <= ds / (2 * eps**3) + 1e-10


def test_penalty_rejects_bad_eps():
    with pytest.raises(InvalidParameterError):
        sg.penalty(0.0, 0.0)
    with pytest.raises(InvalidParameterError):
        sg.solve_penalized(None, None, eps=-1.0)


# -- projected SOR -------------------------------------------------------------


def test_inactive_obstacle_matches_unconstrained():
    a = 0.5
    grid = sg.build_grid(1, 1.0, 1 / 32, 1 / 32, a)
    _, Y = grid.node_mesh()
    g = Y ** (1 - a)
    problem = sg.make_problem(grid, psi=-1.0, boundary=g)
    form = sg.assemble_energy(grid, problem)
    sol = sg.solve_psor(form, problem, omega=near_optimal_omega(grid), tol=1e-12)
    assert not sol.active.any()
    free = ~form.dirichlet
    U0 = np.where(form.dirichlet, g.ravel(), 0.0)
    U0[free] = spla.spsolve(
        form.stiffness[free][:, free].tocsc(),
        -(form.load[free] + form.stiffness[free][:, form.dirichlet] @ U0[form.dirichlet]),
    )
    assert np.abs(sol.U.ravel() - U0).max() <= 1e-9


def test_profile_active_set_location():
    grid, problem, form, sol, g = solved_profile(0.0, 1.0 / 64)
    xs = grid.xs[0]
    act = sol.active
    inner = np.abs(xs) < 0.9
    # active exactly where x <= 0, within 2 cells
    assert np.all(act[inner & (xs <= -2 * grid.hx)])
    assert not np.any(act[inner & (xs >= 2 * grid.hx)])


def test_fully_active_configuration():
    grid = sg.build_grid(1, 1.0, 1 / 32, 1 / 32, 0.0)
    problem = sg.make_problem(grid, psi=1.0, boundary=0.0)
    form = sg.assemble_energy(grid, problem)
    sol = sg.solve_psor(form, problem, omega=near_optimal_omega(grid))
    assert np.all(sol.active[1:-1])
    assert np.allclose(sol.U[1:-1, 0], 1.0)
    comp = sg.complementarity_report(sol, problem, form)
    assert comp["min_gap_max"] <= 10 * sol.tol


def test_complementarity_gaps_at_tolerance():
    grid, problem, form, sol, _ = solved_profile(0.0, 1.0 / 64)
    comp = sg.complementarity_report(sol, problem, form)
    scale = max(1.0, np.abs(sol.U).max())
    assert comp["min_gap_max"] <= 10 * sol.tol * scale
    assert comp["prod_gap_max"] <= 10 * sol.tol * scale


def test_full_contact_min_gap_ignores_trace_magnitude():
    # U = psi with lambda >= 0: min gap is 0 regardless of multiplier size
    grid = sg.build_grid(1, 1.0, 1 / 16, 1 / 16, 0.0)
    problem = sg.make_problem(grid, psi=1.0, boundary=0.0)
    form = sg.assemble_energy(grid, problem)
    sol = sg.solve_psor(form, problem, omega=near_optimal_omega(grid))
    comp = sg.complementarity_report(sol, problem, form)
    assert comp["multiplier_min"] >= -10 * sol.tol
    assert comp["min_gap_max"] <= 10 * sol.tol


def test_energy_monotone_across_sweeps():
    grid = sg.build_grid(1, 1.0, 1 / 32, 1 / 32, 0.25)
    problem = sg.make_problem(grid, boundary=profile_boundary(grid, 0.25))
    form = sg.assemble_energy(grid, problem)
    # cold PSOR stopped after k sweeps (738 converge) hands back its iterate
    e = []
    for k in 2 ** np.arange(10):
        with pytest.raises(NonconvergedError) as stop:
            sg.solve_psor(form, problem, omega=1.7, warm_start=False, tol=1e-11, max_iter=k)
        e.append(energy(form, stop.value.last_iterate))
    scale = abs(e[0]) + abs(e[-1])
    assert np.all(np.diff(e) <= 1e-12 * scale)


def test_maximum_principle_sanity():
    grid = sg.build_grid(1, 1.0, 1 / 32, 1 / 32, 0.5)
    X, Y = grid.node_mesh()
    g = 1.0 + 0.5 * np.cos(np.pi * X) * (Y + 0.1) / 1.1  # nonnegative boundary
    problem = sg.make_problem(grid, psi=0.0, boundary=np.maximum(g, 0.0))
    form = sg.assemble_energy(grid, problem)
    sol = sg.solve_psor(form, problem, omega=near_optimal_omega(grid))
    assert sol.U.min() >= -1e-12


def test_nonconvergence_raises_with_iterate():
    grid = sg.build_grid(1, 1.0, 1 / 32, 1 / 32, 0.0)
    problem = sg.make_problem(grid, boundary=profile_boundary(grid, 0.0))
    form = sg.assemble_energy(grid, problem)
    with pytest.raises(NonconvergedError) as exc:
        sg.solve_psor(form, problem, omega=1.7, warm_start=False, max_iter=3)
    assert exc.value.last_iterate is not None
    assert exc.value.final_residual > 0


def _tilted_n2_problem():
    # B = [[1 + 0.1 x2, 0.25 + 0.1 x1], [same, 1]]: K is not an M-matrix
    grid = sg.build_grid(2, 1.0, 1 / 8, 1 / 8, 0.5)
    off = {"poly": [[0.25, [0, 0]], [0.1, [1, 0]]]}
    coeff = sg.build_coefficients(
        grid, [[{"poly": [[1.0, [0, 0]], [0.1, [0, 1]]]}, off], [off, 1.0]]
    )
    problem = sg.make_problem(grid, coeff=coeff, boundary=profile_boundary(grid, 0.5))
    return grid, problem, sg.assemble_energy(grid, problem)


def _profile_problem_a05():
    grid = sg.build_grid(1, 1.0, 1 / 32, 1 / 32, 0.5)
    problem = sg.make_problem(grid, boundary=profile_boundary(grid, 0.5))
    return grid, problem, sg.assemble_energy(grid, problem)


@pytest.mark.parametrize("case", [_profile_problem_a05, _tilted_n2_problem],
                         ids=["n1_a05", "n2_tilted"])
def test_active_set_start_matches_cold_psor(case):
    grid, problem, form = case()
    sol = sg.solve_psor(form, problem)
    cold = sg.solve_psor(form, problem, warm_start=False, tol=1e-13)
    assert sol.active.any() and not sol.active.all()
    assert 2 <= sol.active_set_iterations < solver_mod.ACTIVE_SET_MAX_STEPS
    assert sol.iterations <= 2  # the sweeps only certify the active-set iterate
    assert cold.active_set_iterations == 0
    assert np.abs(sol.U - cold.U).max() <= 1e-9


def test_active_set_cap_falls_back_to_psor(monkeypatch):
    grid, problem, form = _profile_problem_a05()
    ref = sg.solve_psor(form, problem, warm_start=False, tol=1e-13)
    monkeypatch.setattr(solver_mod, "ACTIVE_SET_MAX_STEPS", 1)
    sol = sg.solve_psor(form, problem, tol=1e-12)
    assert sol.active_set_iterations == 1
    assert sol.iterations > 2
    assert np.abs(sol.U - ref.U).max() <= 1e-9


def test_failed_cg_falls_back_to_psor(monkeypatch):
    grid, problem, form = _tilted_n2_problem()
    ref = sg.solve_psor(form, problem, warm_start=False, tol=1e-13)
    monkeypatch.setattr(spla, "cg", lambda A, b, x0=None, **kw: (np.full_like(b, np.nan), 1))
    sol = sg.solve_psor(form, problem, tol=1e-12)
    assert sol.active_set_iterations == 1
    assert np.abs(sol.U - ref.U).max() <= 1e-9


def _embedded_system(n, h, a, graded=False):
    """Stiffness, load, Dirichlet and every third thin node fixed, and the
    fixed values (profile boundary data, 0.05 on the fixed thin nodes)."""
    grid = graded_grid(n, h, a) if graded else sg.build_grid(n, 1.0, h, h, a)
    coeff = None
    if n == 2:
        off = {"poly": [[0.25, [0, 0]], [0.1, [1, 0]]]}
        coeff = sg.build_coefficients(
            grid, [[{"poly": [[1.0, [0, 0]], [0.1, [0, 1]]]}, off], [off, 1.0]]
        )
    problem = sg.make_problem(grid, coeff=coeff, f=1.0, boundary=profile_boundary(grid, a))
    form = sg.assemble_energy(grid, problem)
    fixed = form.dirichlet.copy()
    fixed[form.thin_rows[::3]] = True
    U = np.where(form.dirichlet, problem.boundary.ravel(), 0.0)
    U[form.thin_rows[::3]] = 0.05
    return grid, form, fixed, U


@pytest.mark.parametrize(
    "n, h, a, graded",
    [(1, 1 / 7, 0.0, False), (1, 1 / 7, 0.75, False), (1, 1 / 96, 0.0, False),
     (1, 1 / 96, 0.75, False), (1, 1 / 97, 0.0, False), (1, 1 / 97, 0.75, False),
     (1, 1 / 33, 0.5, True), (2, 1 / 8, 0.5, False), (2, 1 / 13, 0.5, False)],
)
def test_multigrid_cg_matches_direct_solve(n, h, a, graded):
    grid, form, fixed, U = _embedded_system(n, h, a, graded)
    K, free = form.stiffness, ~fixed
    x, its = solver_mod._linear_solve(K, fixed, form.load, U, solver_mod._prolongations(grid),
                                      solver_mod.ACTIVE_SET_RTOL)
    ref = U.copy()
    ref[free] = spla.spsolve(K[free][:, free].tocsc(),
                             -(form.load[free] + K[free][:, fixed] @ U[fixed]))
    assert its > 0
    assert np.array_equal(x[fixed], U[fixed])
    assert np.abs(x - ref).max() <= 1e-10 * np.abs(ref).max()


@pytest.mark.parametrize("m", [2, 3, 8, 9])
def test_axis_prolongation_interpolates_linearly_in_coordinates(m):
    # graded axis, odd and even node counts: coarse nodes are the even
    # indices plus the last, and linear functions of z are reproduced
    z = (np.arange(m) / (m - 1)) ** 2
    P, keep = solver_mod._axis_prolongation(z)
    assert keep[0] == 0 and keep[-1] == m - 1 and np.all(keep[:-1] % 2 == 0)
    assert np.allclose(P @ z[keep], z, rtol=0.0, atol=1e-15)
    assert np.allclose(P.sum(axis=1), 1.0, rtol=0.0, atol=1e-15)


def test_multigrid_cg_iterations_do_not_grow_with_resolution():
    grid, form, fixed, U = _embedded_system(1, 1 / 128, 0.5)
    x, its = solver_mod._linear_solve(form.stiffness, fixed, form.load, U,
                                      solver_mod._prolongations(grid), solver_mod.ACTIVE_SET_RTOL)
    assert x is not None
    assert its <= 30


def test_default_omega_is_near_optimal():
    grid = sg.build_grid(1, 1.0, 1 / 16, 1 / 16, 0.0)
    problem = sg.make_problem(grid, boundary=profile_boundary(grid, 0.0))
    form = sg.assemble_energy(grid, problem)
    default = sg.solve_psor(form, problem, warm_start=False)
    explicit = sg.solve_psor(form, problem, warm_start=False, omega=near_optimal_omega(grid))
    assert default.iterations == explicit.iterations
    assert np.array_equal(default.U, explicit.U)


def test_bad_omega_rejected():
    grid = sg.build_grid(1, 1.0, 1 / 16, 1 / 16, 0.0)
    problem = sg.make_problem(grid)
    form = sg.assemble_energy(grid, problem)
    with pytest.raises(InvalidParameterError):
        sg.solve_psor(form, problem, omega=2.5)


@pytest.mark.parametrize("a", [0.0, 0.5])
def test_variable_coefficient_manufactured_solution(a):
    # U = log(1+0.1x)/0.1 + y^2/2 solves div(y^a diag(1+0.1x,1) grad U)
    # = (1+a) y^a with zero weighted flux on the thin set, so the
    # unconstrained solve must converge to it (validates the x-dependent
    # assembly and the load path together)
    errs = []
    for h in (1 / 16, 1 / 32, 1 / 64):
        grid = sg.build_grid(1, 1.0, h, h, a)
        coeff = sg.build_coefficients(grid, [[{"poly": [[1.0, [0]], [0.1, [1]]]}]])
        X, Y = grid.node_mesh()
        g = np.log(1 + 0.1 * X) / 0.1 + Y**2 / 2
        problem = sg.make_problem(grid, coeff=coeff, psi=-10.0, f=float(1 + a), boundary=g)
        form = sg.assemble_energy(grid, problem)
        sol = sg.solve_psor(form, problem, omega=near_optimal_omega(grid), tol=1e-12)
        errs.append(np.abs(sol.U - g).max())
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert orders.min() >= 1.8


# -- penalized solver ----------------------------------------------------------


def test_penalized_inactive_matches_unconstrained():
    a = 0.25
    grid = sg.build_grid(1, 1.0, 1 / 32, 1 / 32, a)
    _, Y = grid.node_mesh()
    g = Y ** (1 - a)
    problem = sg.make_problem(grid, psi=-1.0, boundary=g)
    form = sg.assemble_energy(grid, problem)
    pen = sg.solve_penalized(form, problem, eps=1e-2)
    ref = sg.solve_psor(form, problem, omega=near_optimal_omega(grid))
    assert np.abs(pen.U - ref.U).max() <= 1e-8


def test_penalized_ladder_decreases_to_psor():
    grid, problem, form, sol, _ = solved_profile(0.0, 1.0 / 32)
    dists = []
    for eps in (1e-1, 1e-2, 1e-3):
        pen = sg.solve_penalized(form, problem, eps=eps)
        dists.append(np.abs(pen.U - sol.U).max())
    assert dists[2] < dists[1] < dists[0]


def test_penalized_gap_is_order_eps():
    grid, problem, form, sol, _ = solved_profile(0.0, 1.0 / 32)
    pen = sg.solve_penalized(form, problem, eps=1e-2)
    comp_pen = sg.complementarity_report(pen, problem, form)
    comp_ref = sg.complementarity_report(sol, problem, form)
    assert comp_pen["min_gap_max"] > comp_ref["min_gap_max"]
    assert comp_pen["min_gap_max"] <= 10 * 1e-2
