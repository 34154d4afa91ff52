"""Active-set solver, its penalized cross-check, complementarity certification."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import signorini as sg
import signorini.cli as cli
import signorini.solver as solver_mod
from signorini.errors import InvalidConfigurationError, InvalidParameterError, NonconvergedError

from conftest import (
    TILTED_B, active_set_energies, graded_grid, penalized_reference, penalty, penalty_derivative,
    profile_boundary, psor_reference, solved_profile,
)

# CG tolerance of the multigrid tests' linear solves, relative to the
# right-hand side
TIGHT_RTOL = 1e-14


# -- penalty family -----------------------------------------------------------


def test_penalty_zero_for_nonnegative():
    assert penalty(0.0, 0.1) == 0.0
    assert penalty(1.0, 0.1) == 0.0


@pytest.mark.parametrize("eps", [0.5, 0.1, 1e-2, 1e-3])
def test_penalty_branch_junction_value(eps):
    # both branches agree at s = -2 eps^2 with value -eps
    assert penalty(-2 * eps**2, eps) == pytest.approx(-eps, rel=1e-12)


def test_penalty_linear_branch_arithmetic():
    assert penalty(-0.5, 0.1) == pytest.approx(0.1 - 0.5 / 0.1)
    assert penalty(-0.5, 0.1) == pytest.approx(-4.9)


def test_penalty_is_c1_monotone_nonpositive():
    eps = 0.07
    s = np.linspace(-4 * eps**2, eps, 4001)
    vals = penalty(s, eps)
    ders = penalty_derivative(s, eps)
    assert np.all(vals <= 1e-15)
    assert np.all(ders >= 0)
    # numerical derivative matches the analytic one across the junctions
    # (curvature of the bridge is 1/(2 eps^3), bounding the central-diff error)
    num = np.gradient(vals, s)
    ds = s[1] - s[0]
    assert np.abs(num[2:-2] - ders[2:-2]).max() <= ds / (2 * eps**3) + 1e-10


def test_penalty_rejects_bad_eps():
    with pytest.raises(InvalidParameterError):
        penalty(0.0, 0.0)
    with pytest.raises(InvalidParameterError):
        penalized_reference(None, None, eps=-1.0)


# -- active-set solver ---------------------------------------------------------


def test_inactive_obstacle_matches_unconstrained():
    a = 0.5
    grid = sg.build_grid(1, 1.0, 1 / 32, 1 / 32, a)
    _, Y = grid.node_mesh()
    g = Y ** (1 - a)
    problem = sg.make_problem(grid, psi=-1.0, boundary=g)
    form = sg.assemble_energy(grid, problem)
    sol = sg.solve_active_set(form, problem, tol=1e-12)
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
    sol = sg.solve_active_set(form, problem)
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
    sol = sg.solve_active_set(form, problem)
    comp = sg.complementarity_report(sol, problem, form)
    assert comp["multiplier_min"] >= -10 * sol.tol
    assert comp["min_gap_max"] <= 10 * sol.tol


def test_energy_monotone_across_active_set_steps(monkeypatch):
    # from the nested start, a grid fine enough for three finest-level solves
    grid = sg.build_grid(1, 1.0, 1 / 128, 1 / 128, 0.5)
    problem = sg.make_problem(grid, boundary=profile_boundary(grid, 0.5))
    form = sg.assemble_energy(grid, problem)
    # the iterate of every finest-level linear solve, projected onto U >= psi
    e = active_set_energies(form, problem, monkeypatch)
    assert len(e) >= 3
    scale = abs(e[0]) + abs(e[-1])
    assert np.all(np.diff(e) <= 1e-12 * scale)


def test_maximum_principle_sanity():
    grid = sg.build_grid(1, 1.0, 1 / 32, 1 / 32, 0.5)
    X, Y = grid.node_mesh()
    g = 1.0 + 0.5 * np.cos(np.pi * X) * (Y + 0.1) / 1.1  # nonnegative boundary
    problem = sg.make_problem(grid, psi=0.0, boundary=np.maximum(g, 0.0))
    form = sg.assemble_energy(grid, problem)
    sol = sg.solve_active_set(form, problem)
    assert sol.U.min() >= -1e-12


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


def _steep_dome_problem():
    # the steepest surveyed tilt, 0.45, with the dome obstacle 0.3 - x1^2 - 2 x2^2
    grid = sg.build_grid(2, 1.0, 1 / 16, 1 / 16, 0.5)
    off = {"poly": [[0.45, [0, 0]], [0.1, [1, 0]]]}
    coeff = sg.build_coefficients(grid, [[TILTED_B[0][0], off], [off, 1.0]])
    dome = {"poly": [[0.3, [0, 0]], [-1.0, [2, 0]], [-2.0, [0, 2]]]}
    problem = sg.make_problem(grid, coeff=coeff, psi=dome, boundary=0.0)
    return grid, problem, sg.assemble_energy(grid, problem)


def _fine_steps(sol):
    """The records of the finest level's solves."""
    return [s for s in sol.steps if s["level"] == 0]


@pytest.mark.parametrize("case", [_profile_problem_a05, _tilted_n2_problem],
                         ids=["n1_a05", "n2_tilted"])
def test_active_set_start_matches_cold_psor(case):
    grid, problem, form = case()
    sol = sg.solve_active_set(form, problem)
    ref = psor_reference(form, problem, 1e-13)
    assert sol.active.any() and not sol.active.all()
    assert 2 <= sol.iterations == len(_fine_steps(sol)) < solver_mod.ACTIVE_SET_MAX_STEPS
    assert sol.final_residual <= sol.tol
    assert np.abs(sol.U - ref).max() <= 1e-9


def test_natural_residual_certifies_the_solve():
    # the natural residual, recomputed here from K, load and psi, is at most
    # tol, and the error against a tol = 1e-14 solve is at most 3 tol
    grid = sg.build_grid(2, 1.0, 1 / 32, 1 / 32, 0.5)
    coeff = sg.build_coefficients(grid, TILTED_B)
    problem = sg.make_problem(grid, coeff=coeff, boundary=profile_boundary(grid, 0.5))
    form = sg.assemble_energy(grid, problem)
    tol = 1e-13
    sol = sg.solve_active_set(form, problem, tol=tol)
    U = sol.U.ravel()
    K = form.stiffness
    jacobi = U - (K @ U + form.load) / K.diagonal()
    thin = grid.thin_mask.ravel()
    jacobi[thin] = np.maximum(jacobi[thin], problem.psi.ravel())
    natural = np.abs(U - jacobi)[~form.dirichlet].max()
    assert natural <= tol
    assert sol.final_residual <= tol
    ref = sg.solve_active_set(form, problem, tol=1e-14)
    assert np.array_equal(sol.active, ref.active)
    assert np.abs(sol.U - ref.U).max() <= 3 * tol


def test_dome_obstacle_under_a_steep_tilt_settles():
    grid, problem, form = _steep_dome_problem()
    sol = sg.solve_active_set(form, problem)
    assert sol.active.any() and not sol.active.all()
    assert sol.iterations <= 10
    assert sol.final_residual <= sol.tol


def test_nonconvergence_raises_with_iterate(monkeypatch):
    # a cap of one solve per level: the first finest-level solve, from a
    # nested start capped too, predicts a new set; on the dome it still
    # leaves free thin nodes below the obstacle
    grid, problem, form = _steep_dome_problem()
    monkeypatch.setattr(solver_mod, "ACTIVE_SET_MAX_STEPS", 1)
    with pytest.raises(NonconvergedError, match="did not settle") as exc:
        sg.solve_active_set(form, problem)
    U = exc.value.last_iterate
    assert U.shape == grid.node_shape and np.all(np.isfinite(U))
    assert (U[..., 0] < problem.psi).any()  # the obstacle is not yet imposed
    assert exc.value.final_residual > 0


def test_active_set_cap_falls_back_to_psor(monkeypatch):
    # the solve has no fallback of its own: at a cap of one solve it raises,
    # and projected SOR started from its last iterate reaches the cold
    # reference
    grid, problem, form = _profile_problem_a05()
    ref = psor_reference(form, problem, 1e-13)
    monkeypatch.setattr(solver_mod, "ACTIVE_SET_MAX_STEPS", 1)
    with pytest.raises(NonconvergedError, match="did not settle") as exc:
        sg.solve_active_set(form, problem)
    warm = psor_reference(form, problem, 1e-13, start=exc.value.last_iterate)
    assert np.abs(warm - ref).max() <= 1e-9


def test_failed_cg_raises_with_iterate(monkeypatch):
    # CG fails on the second finest-level solve (an iterate of the grid's
    # length): the last iterate is the first solve's, set to psi on the
    # active set it predicted
    grid, problem, form = _tilted_n2_problem()
    cg, calls = solver_mod._cg, []

    def failing_second(matvec, psolve, x, *args):
        if len(x) == grid.n_nodes:
            calls.append(x)
            if len(calls) == 2:
                return None, solver_mod.CG_MAX_ITER
        return cg(matvec, psolve, x, *args)

    monkeypatch.setattr(solver_mod, "_cg", failing_second)
    with pytest.raises(NonconvergedError, match="CG failed") as exc:
        sg.solve_active_set(form, problem)
    U = exc.value.last_iterate
    free_thin = grid.thin_mask & ~grid.dirichlet_mask
    assert U.shape == grid.node_shape and np.all(np.isfinite(U))
    assert (U[free_thin] == 0.0).any()
    assert exc.value.final_residual > 0


def test_failed_coarse_cg_leaves_the_solve_to_the_finest_level(monkeypatch):
    # every coarse-level CG fails: each ends its level's steps, and the
    # finest level still reaches and certifies the same solution
    grid, problem, form = _tilted_n2_problem()
    ref = sg.solve_active_set(form, problem)
    cg = solver_mod._cg

    def failing_coarse(matvec, psolve, x, *args):
        if len(x) < grid.n_nodes:
            return None, solver_mod.CG_MAX_ITER
        return cg(matvec, psolve, x, *args)

    monkeypatch.setattr(solver_mod, "_cg", failing_coarse)
    sol = sg.solve_active_set(form, problem)
    coarse = [s for s in sol.steps if s["level"] > 0]
    # one failed step per coarse level, coarsest first
    assert [s["level"] for s in coarse] == list(range(len(coarse), 0, -1))
    assert all(s["cg_iterations"] == solver_mod.CG_MAX_ITER for s in coarse)
    assert sol.final_residual <= sol.tol
    assert np.array_equal(sol.active, ref.active)
    assert np.abs(sol.U - ref.U).max() <= 5 * sol.tol


@pytest.mark.parametrize("case", [_profile_problem_a05, _tilted_n2_problem],
                         ids=["n1_a05", "n2_tilted"])
def test_coarse_level_at_the_step_cap_moves_on(case, monkeypatch):
    # no coarse-level set ever repeats: each coarse level stops after
    # ACTIVE_SET_MAX_STEPS solves without an error, and the finest level
    # still reaches and certifies the same solution
    grid, problem, form = case()
    ref = sg.solve_active_set(form, problem)
    predicted, last = solver_mod._predicted, {}

    def never_repeating(A_thin, c, load, U, thin, psi):
        active = predicted(A_thin, c, load, U, thin, psi)
        if len(U) < grid.n_nodes:
            if np.array_equal(active, last.get(len(U))):
                active[0] = not active[0]
            last[len(U)] = active.copy()
        return active

    monkeypatch.setattr(solver_mod, "_predicted", never_repeating)
    sol = sg.solve_active_set(form, problem)
    coarse = [s["level"] for s in sol.steps if s["level"] > 0]
    levels = len(_prolongations(grid))
    assert levels >= 1
    assert coarse == [lv for lv in range(levels, 0, -1) for _ in range(solver_mod.ACTIVE_SET_MAX_STEPS)]
    assert sol.final_residual <= sol.tol
    assert np.array_equal(sol.active, ref.active)
    assert np.abs(sol.U - ref.U).max() <= 5 * sol.tol


def test_nested_start_keeps_the_finest_solves_few():
    # the finest level's step count does not grow with 1/h; the coarse
    # levels' steps come first, coarsest first
    for h in (1 / 32, 1 / 64, 1 / 128):
        grid = sg.build_grid(1, 1.0, h, h, 0.5)
        problem = sg.make_problem(grid, boundary=profile_boundary(grid, 0.5))
        sol = sg.solve_active_set(sg.assemble_energy(grid, problem), problem, tol=1e-10)
        levels = [s["level"] for s in sol.steps]
        assert levels == sorted(levels, reverse=True)
        assert set(levels) == set(range(len(_prolongations(grid)) + 1))
        assert sol.iterations == levels.count(0) <= 3
        assert sol.final_residual <= sol.tol


def _prolongations(grid):
    """Full prolongations [(P, coarse_nodes, coarse_ny), ...] from the
    finest level down: P the Kronecker product of the solver's axis
    prolongations, coarse_nodes the flat fine indices of the coarse nodes
    and coarse_ny the coarse level's number of y layers."""
    return [(sp.kron(T, Py, format="csr"), coarse, len(ky))
            for T, (Py, ky, _), coarse in solver_mod._coarsenings(grid)]


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


EMBEDDED_CASES = pytest.mark.parametrize(
    "n, h, a, graded",
    [(1, 1 / 7, 0.0, False), (1, 1 / 7, 0.75, False), (1, 1 / 96, 0.0, False),
     (1, 1 / 96, 0.75, False), (1, 1 / 97, 0.0, False), (1, 1 / 97, 0.75, False),
     (1, 1 / 33, 0.5, True), (2, 1 / 8, 0.5, False), (2, 1 / 13, 0.5, False)],
)


def _embedded_matrix(A, fixed):
    """Reference D A D + I_fixed, D = diag(~fixed), formed as a copy of A."""
    A = A.tocsr()
    free = ~fixed
    rows = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
    masked = sp.csr_matrix((A.data * (free[rows] & free[A.indices]), A.indices, A.indptr),
                           shape=A.shape)
    return masked + sp.diags(fixed.astype(float), format="csr")


def _multigrid(form, fixed):
    """The solver's hierarchy for form, updated to the fixed nodes fixed."""
    mg = solver_mod._Multigrid(form.stiffness, form.dirichlet, form.grid)
    mg.update(fixed)
    return mg


def _fresh_masked_levels(A, fixed, grid, level=0):
    """Reference hierarchy built from scratch: D A D on the given level,
    then R~ A_l P~ with the prolongations masked to D_f P D_c."""
    levels = [_embedded_matrix(A, fixed) - sp.diags(fixed.astype(float))]
    for P, coarse, _ in _prolongations(grid)[level:]:
        fixed_c = fixed[coarse]
        P = sp.diags((~fixed).astype(float)) @ P @ sp.diags((~fixed_c).astype(float))
        levels.append((P.T.tocsr() @ levels[-1] @ P).tocsr())
        fixed = fixed_c
    return levels


@EMBEDDED_CASES
def test_masked_product_equals_the_embedded_matrix(n, h, a, graded):
    # CG runs on D K D with the fixed values on the right-hand side, so its
    # vectors vanish on fixed nodes, where y = K x; y *= keep is the
    # embedded matrix's product
    grid, form, fixed, U = _embedded_system(n, h, a, graded)
    M = _embedded_matrix(form.stiffness, fixed)
    mg = _multigrid(form, fixed)
    for x in (U, np.random.default_rng(n).standard_normal(grid.n_nodes)):
        x = np.where(fixed, 0.0, x)
        assert np.array_equal(mg.matvec(x), M @ x)


@EMBEDDED_CASES
def test_axis_wise_transfers_equal_the_kronecker_prolongation(n, h, a, graded):
    # the V-cycle and the nested start restrict and prolong factor by
    # factor, with no P stored; with the masks applied, on grids with odd
    # and even axes and graded layers, the results must equal the full
    # Kronecker prolongation's products within 1e-15 of their largest entry
    grid, form, fixed, _ = _embedded_system(n, h, a, graded)
    mg = _multigrid(form, fixed)
    rng = np.random.default_rng(11)
    levels = _prolongations(grid)
    assert len(mg.transfers) == len(levels)
    for t, (P, _, _), keep, keep_c in zip(mg.transfers, levels, mg.keeps, mg.keeps[1:]):
        x = rng.standard_normal(P.shape[1]) * keep_c
        y = rng.standard_normal(P.shape[0]) * keep
        for ours, ref in ((t.prolong(x) * keep, (P @ x) * keep),
                          (t.restrict(y) * keep_c, (P.T @ y) * keep_c)):
            assert np.abs(ours - ref).max() <= 1e-15 * np.abs(ref).max()


@EMBEDDED_CASES
def test_blocked_galerkin_build_equals_one_block(n, h, a, graded, monkeypatch):
    # the build forms each coarse operator in blocks of coarse y lines; a
    # row's products do not depend on its block, so small blocks give the
    # one-block operators bit for bit
    grid, form, _, _ = _embedded_system(n, h, a, graded)
    whole = solver_mod._Multigrid(form.stiffness, form.dirichlet, grid)
    monkeypatch.setattr(solver_mod, "GALERKIN_BLOCK_PRODUCTS", 0)
    blocked = solver_mod._Multigrid(form.stiffness, form.dirichlet, grid)
    for A, B in zip(whole.ops[1:], blocked.ops[1:]):
        for x, y in ((A.data, B.data), (A.indices, B.indices), (A.indptr, B.indptr)):
            assert np.array_equal(x, y)


def _assert_within_4_ulps_per_row(ours, ref):
    """Every entry within 4 ulps of the largest entry in its row of ref."""
    row_max = abs(ref).max(axis=1).toarray().ravel()
    err = abs(ours - ref).max(axis=1).toarray().ravel()
    assert np.all(err <= 4 * np.finfo(float).eps * row_max)


@EMBEDDED_CASES
def test_built_hierarchy_equals_the_kronecker_galerkin_products(n, h, a, graded):
    # with only the Dirichlet nodes fixed, every coarse operator of the
    # build equals the masked Galerkin product of the full Kronecker
    # prolongation, applied level by level, on odd, even and graded axes
    grid, form, _, _ = _embedded_system(n, h, a, graded)
    mg = solver_mod._Multigrid(form.stiffness, form.dirichlet, grid)
    fresh = _fresh_masked_levels(form.stiffness, form.dirichlet, grid)
    assert len(mg.ops) == len(fresh)
    for ours, ref in zip(mg.ops[1:], fresh[1:]):
        _assert_within_4_ulps_per_row(ours, ref)


@EMBEDDED_CASES
def test_update_rewrites_only_the_low_rows_in_place(n, h, a, graded):
    # an update at level 1, then one at level 0, each overwrite the data of
    # every coarser operator's two lowest y layers: the CSR arrays stay the
    # same objects, and every other row keeps its bits
    grid, form, fixed, _ = _embedded_system(n, h, a, graded)
    mg = solver_mod._Multigrid(form.stiffness, form.dirichlet, grid)
    coarse_ny = [ny for _, _, ny in _prolongations(grid)]
    before = [(A.indptr, A.indices, A.data, A.data.copy()) for A in mg.ops[1:]]
    if len(mg.ops) > 2:
        fixed1 = ~mg.keeps[1]
        fixed1[np.flatnonzero(~fixed1 & (np.arange(len(fixed1)) % coarse_ny[0] == 0))[::3]] = True
        mg.update(fixed1, level=1)
    mg.update(fixed)
    for (indptr, indices, data, old), A, ny in zip(before, mg.ops[1:], coarse_ny):
        assert A.indptr is indptr and A.indices is indices and A.data is data
        high = np.repeat(np.arange(A.shape[0]) % ny >= 2, np.diff(A.indptr))
        assert high.any() or ny == 2
        assert np.array_equal(A.data[high], old[high])


def _held_bytes(obj, exclude) -> int:
    """Bytes of the distinct arrays that obj holds through its attributes,
    lists, tuples and sparse matrices, the arrays of exclude left out."""
    def root(a):
        while isinstance(a.base, np.ndarray):
            a = a.base
        return a

    seen = {id(root(a)) for a in (exclude.data, exclude.indices, exclude.indptr)}

    def walk(o):
        if isinstance(o, np.ndarray):
            o = root(o)
            if id(o) in seen:
                return 0
            seen.add(id(o))
            return o.nbytes
        if sp.issparse(o):
            return walk(o.data) + walk(o.indices) + walk(o.indptr)
        if isinstance(o, (list, tuple)):
            return sum(walk(v) for v in o)
        return sum(walk(v) for v in vars(o).values()) if hasattr(o, "__dict__") else 0

    return walk(obj)


# the benchmark workloads' seed-0 grids and coefficients (perfbench/workloads.py)
@pytest.mark.parametrize("n, h, coefficients", [(1, 1 / 256, None), (2, 1 / 16, TILTED_B)],
                         ids=["diag1d_fine", "diag2d_tilt"])
def test_hierarchy_stores_little_beside_the_stiffness(n, h, coefficients):
    # one operator per coarse level and no stored prolongation: every array
    # the hierarchy holds after its build, K itself aside, totals at most
    # 1.25 times K's bytes
    grid = sg.build_grid(n, 1.0, h, h, 0.5)
    coeff = sg.build_coefficients(grid, coefficients)
    problem = sg.make_problem(grid, coeff=coeff, boundary=profile_boundary(grid, 0.5))
    K = sg.assemble_energy(grid, problem).stiffness
    mg = solver_mod._Multigrid(K, grid.dirichlet_mask.ravel(), grid)
    assert mg.ops[0] is K
    assert _held_bytes(mg, K) <= 1.25 * (K.data.nbytes + K.indices.nbytes + K.indptr.nbytes)


@EMBEDDED_CASES
def test_updated_hierarchy_equals_a_fresh_masked_build(n, h, a, graded):
    # one hierarchy, updated through changing fixed sets, against a fresh
    # masked Galerkin build at every level; the two sum the same products
    # in possibly different orders, so every entry must agree within 4 ulps
    # of the largest entry in its row of the fresh build
    grid, form, fixed, U = _embedded_system(n, h, a, graded)
    K, thin, dirichlet = form.stiffness, form.thin_rows, form.dirichlet
    mg = solver_mod._Multigrid(K, dirichlet, grid)
    assert len(mg.transfers) == len(_prolongations(grid))
    for extra in (thin[::3], thin[1::2], thin[:0], thin[: len(thin) // 2]):
        fixed = dirichlet.copy()
        fixed[extra] = True
        mg.update(fixed)
        fresh = _fresh_masked_levels(K, fixed, grid)
        assert len(mg.ops) == len(fresh)
        for ours, ref in zip(mg.ops[1:], fresh[1:]):
            _assert_within_4_ulps_per_row(ours, ref)


# the embedded cases whose grid has a coarse level
@pytest.mark.parametrize("n, h, a, graded", [
    (1, 1 / 96, 0.0, False), (1, 1 / 96, 0.75, False), (1, 1 / 97, 0.0, False),
    (1, 1 / 97, 0.75, False), (1, 1 / 33, 0.5, True), (2, 1 / 8, 0.5, False),
    (2, 1 / 13, 0.5, False)])
def test_coarse_level_update_equals_a_fresh_masked_build(n, h, a, graded):
    # an update of level 1 with every third of its thin rows fixed keeps
    # the finest level and rebuilds the coarser ones from level 1's
    # operator; a linear solve on level 1 then matches a direct solve
    grid, form, _, _ = _embedded_system(n, h, a, graded)
    mg = solver_mod._Multigrid(form.stiffness, form.dirichlet, grid)
    ops0, keep0 = mg.ops[0], mg.keeps[0]
    A = mg.ops[1]
    ny = _prolongations(grid)[0][2]  # level 1's y layers
    fixed = ~mg.keeps[1]
    thin = np.flatnonzero(~fixed & (np.arange(A.shape[0]) % ny == 0))
    fixed[thin[::3]] = True
    mg.update(fixed, level=1)
    assert mg.ops[0] is ops0 and mg.keeps[0] is keep0 and mg.ops[1] is A
    fresh = _fresh_masked_levels(A, fixed, grid, level=1)
    assert len(mg.ops) == len(fresh) + 1
    for ours, ref in zip(mg.ops[2:], fresh[1:]):
        _assert_within_4_ulps_per_row(ours, ref)
    load = np.random.default_rng(3).standard_normal(A.shape[0]) * ~fixed
    W = np.zeros(A.shape[0])
    W[thin[::3]] = 0.05
    x, its = solver_mod._linear_solve(mg, load, W, TIGHT_RTOL, level=1)
    free = ~fixed
    ref = W.copy()
    ref[free] = spla.spsolve(A[free][:, free].tocsc(), -(load[free] + A[free][:, fixed] @ W[fixed]))
    assert its > 0 and np.array_equal(x[fixed], W[fixed])
    assert np.abs(x - ref).max() <= 1e-10 * np.abs(ref).max()


@EMBEDDED_CASES
def test_multigrid_cg_matches_direct_solve(n, h, a, graded):
    grid, form, fixed, U = _embedded_system(n, h, a, graded)
    K, free = form.stiffness, ~fixed
    x, its = solver_mod._linear_solve(_multigrid(form, fixed), form.load, U, TIGHT_RTOL)
    ref = U.copy()
    ref[free] = spla.spsolve(K[free][:, free].tocsc(),
                             -(form.load[free] + K[free][:, fixed] @ U[fixed]))
    assert its > 0
    assert np.array_equal(x[fixed], U[fixed])
    assert np.abs(x - ref).max() <= 1e-10 * np.abs(ref).max()


@EMBEDDED_CASES
def test_cg_repeats_scipy_cg(n, h, a, graded):
    # the in-module CG runs scipy's preconditioned CG recurrence: the same
    # iterates bitwise and the same iteration count at every stop
    grid, form, fixed, U = _embedded_system(n, h, a, graded)
    mg = _multigrid(form, fixed)
    keep = ~fixed
    b = -(form.load + form.stiffness @ np.where(fixed, U, 0.0)) * keep
    shape = form.stiffness.shape
    A = spla.LinearOperator(shape, matvec=mg.matvec, dtype=float)
    M = spla.LinearOperator(shape, matvec=mg.cycle, dtype=float)
    for rel in (1e-1, 1e-6, 1e-14):
        atol = rel * np.linalg.norm(b)
        count = [0]
        ref, info = spla.cg(A, b, x0=U * keep, rtol=0.0, atol=atol, M=M,
                            maxiter=solver_mod.CG_MAX_ITER,
                            callback=lambda _: count.__setitem__(0, count[0] + 1))
        x0 = U * keep
        x, its = solver_mod._cg(mg.matvec, mg.cycle, x0, b - mg.matvec(x0), atol)
        assert info == 0 and its == count[0] > 0
        assert np.array_equal(x, ref)


def test_cg_reports_failure_at_its_iteration_budget(monkeypatch):
    grid, form, fixed, U = _embedded_system(1, 1 / 16, 0.5)
    mg = _multigrid(form, fixed)
    monkeypatch.setattr(solver_mod, "CG_MAX_ITER", 2)
    b = -(form.load + form.stiffness @ np.where(fixed, U, 0.0)) * ~fixed
    x0 = U * ~fixed
    assert solver_mod._cg(mg.matvec, mg.cycle, x0, b - mg.matvec(x0), 0.0) == (None, 2)
    # a zero right-hand side from a zero start: solved before any iteration
    x, its = solver_mod._cg(mg.matvec, mg.cycle, 0.0 * b, 0.0 * b, 0.0)
    assert its == 0 and not x.any()


@EMBEDDED_CASES
def test_loose_solve_reduces_its_own_residual(n, h, a, graded):
    # a start one small step from the solution: the loose stop is relative
    # to the start's residual, not to the fixed values, so CG still runs
    grid, form, fixed, U = _embedded_system(n, h, a, graded)
    mg = _multigrid(form, fixed)
    x, _ = solver_mod._linear_solve(mg, form.load, U, TIGHT_RTOL)
    start = x.copy()
    free = np.flatnonzero(~fixed)
    start[free[len(free) // 3]] += 1e-9

    def residual(v):
        return np.linalg.norm(np.where(fixed, 0.0, form.stiffness @ v + form.load))

    loose = solver_mod.ACTIVE_SET_LOOSE_RTOL
    y, its = solver_mod._linear_solve(mg, form.load, start, loose, loose=True)
    assert its > 0
    assert residual(y) <= loose * residual(start)


@EMBEDDED_CASES
def test_loose_solve_forms_its_starting_residual_once(n, h, a, graded):
    # the residual that sets a loose solve's stop is the one CG starts from:
    # outside the V-cycles, one finest-level product for it and one per CG
    # iteration, with the iterate of a fresh CG run
    grid, form, fixed, U = _embedded_system(n, h, a, graded)
    mg = _multigrid(form, fixed)
    start = 0.5 * solver_mod._linear_solve(mg, form.load, U, TIGHT_RTOL)[0]
    products, cycling = [], [False]
    matvec, cycle = mg.matvec, mg.cycle

    def counting(x, level=0):
        if not cycling[0]:
            products.append(level)
        return matvec(x, level)

    def uncounted(r, level=0):
        cycling[0] = True
        try:
            return cycle(r, level)
        finally:
            cycling[0] = level > 0

    mg.matvec, mg.cycle = counting, uncounted
    loose = solver_mod.ACTIVE_SET_LOOSE_RTOL
    y, its = solver_mod._linear_solve(mg, form.load, start, loose, loose=True)
    assert its > 0 and products == [0] * (its + 1)
    keep = mg.keeps[0]
    b = -(form.load + mg.ops[0] @ np.where(fixed, start, 0.0)) * keep
    atol = loose * np.linalg.norm(b - matvec(start * keep))
    x, its_cg = solver_mod._cg(matvec, cycle, start * keep, b - matvec(start * keep), atol)
    assert its_cg == its and np.array_equal(np.where(fixed, start, x), y)


@pytest.mark.parametrize("case", [_profile_problem_a05, _tilted_n2_problem],
                         ids=["n1_a05", "n2_tilted"])
def test_loose_then_tight_active_set_matches_tight_only(case, monkeypatch):
    grid, problem, form = case()
    sol = sg.solve_active_set(form, problem, tol=1e-13)
    *loose, last = _fine_steps(sol)
    # every new set is solved loosely, on every level; the last solve
    # re-solves the set the loose solve before it repeated, to the
    # natural-residual stop
    assert all(s["rtol"] == solver_mod.ACTIVE_SET_LOOSE_RTOL for s in sol.steps[:-1])
    assert last == sol.steps[-1] and last["tol"] == 1e-13 and "rtol" not in last
    assert loose[-1]["active"] == last["active"] > 0
    assert all(s["cg_iterations"] > 0 for s in loose)
    assert sol.iterations == len(loose) + 1
    monkeypatch.setattr(solver_mod, "ACTIVE_SET_LOOSE_RTOL", 1e-14)
    tight = sg.solve_active_set(form, problem, tol=1e-13)
    assert all(s["rtol"] == 1e-14 for s in tight.steps[:-1])
    assert np.array_equal(sol.active, tight.active)
    assert np.abs(sol.U - tight.U).max() <= 1e-12


@pytest.mark.parametrize("case", [_profile_problem_a05, _tilted_n2_problem],
                         ids=["n1_a05", "n2_tilted"])
def test_loose_set_rejected_by_the_tight_solve_keeps_iterating(case, monkeypatch):
    # above 1 a loose solve stops where it starts, so a set repeats before
    # it has settled and its tight re-solve changes it
    grid, problem, form = case()
    ref = sg.solve_active_set(form, problem, tol=1e-13)
    monkeypatch.setattr(solver_mod, "ACTIVE_SET_LOOSE_RTOL", 2.0)
    sol = sg.solve_active_set(form, problem, tol=1e-13)
    tight = [i for i, s in enumerate(sol.steps) if "tol" in s]
    assert tight[0] < len(sol.steps) - 1 and sol.steps[tight[0] + 1]["rtol"] == 2.0
    assert sol.steps[tight[0] + 1]["active"] != sol.steps[tight[0]]["active"]
    assert tight[-1] == len(sol.steps) - 1
    assert np.array_equal(sol.active, ref.active)
    assert np.abs(sol.U - ref.U).max() <= 1e-12


@pytest.mark.parametrize("case", [_profile_problem_a05, _tilted_n2_problem],
                         ids=["n1_a05", "n2_tilted"])
def test_active_set_ignores_round_off_in_the_boundary_data(case):
    # an oracle once gave 1.66e-19 for the exact 0 at x1 = -R, y = 0
    grid, problem, form = case()
    actives = []
    for value in (1.66e-19, 0.0):
        boundary = problem.boundary.copy()
        boundary[0, ..., 0] = value
        sol = sg.solve_active_set(form, dataclasses.replace(problem, boundary=boundary))
        actives.append(sol.active)
    assert np.array_equal(actives[0], actives[1])
    assert actives[1].any()
    assert not (actives[1] & grid.dirichlet_mask[..., 0]).any()


@pytest.mark.parametrize("m", [2, 3, 8, 9])
def test_axis_prolongation_interpolates_linearly_in_coordinates(m):
    # graded axis, odd and even node counts: coarse nodes are the even
    # indices plus the last, and linear functions of z are reproduced
    z = (np.arange(m) / (m - 1)) ** 2
    P, keep, _ = solver_mod._axis_prolongation(z)
    assert keep[0] == 0 and keep[-1] == m - 1 and np.all(keep[:-1] % 2 == 0)
    assert np.allclose(P @ z[keep], z, rtol=0.0, atol=1e-15)
    assert np.allclose(P.sum(axis=1), 1.0, rtol=0.0, atol=1e-15)


def test_multigrid_cg_iterations_do_not_grow_with_resolution():
    # the hierarchy is updated, not rebuilt, for each fixed set; a tight
    # solve must still take at most 16 CG iterations at every h, and the
    # finest at most 2 more than the coarsest
    counts = []
    for h in (1 / 64, 1 / 128, 1 / 256):
        grid, form, fixed, U = _embedded_system(1, h, 0.5)
        mg = _multigrid(form, form.dirichlet)
        mg.update(fixed)
        x, its = solver_mod._linear_solve(mg, form.load, U, TIGHT_RTOL)
        assert x is not None
        counts.append(its)
    assert max(counts) <= 16
    assert counts[-1] - counts[0] <= 2


OMEGA_CONFIG = {"n": 1, "a": 0.5, "hx": 1 / 16, "hy": 1 / 16,
                "boundary": "oracle:signorini_profile"}


def test_default_omega_is_near_optimal():
    # a config's omega, once the PSOR relaxation, leaves the solve unchanged:
    # the default and the model Laplacian's SOR optimum give the same solves
    near_optimal = 2.0 / (1.0 + np.sin(np.pi / 16))
    default, explicit = (
        cli.run_solve(cli.ExperimentConfig.from_dict(dict(OMEGA_CONFIG, solver=solver)))[3]
        for solver in ({"method": "psor"}, {"method": "psor", "omega": near_optimal}))
    assert default.iterations == explicit.iterations
    assert np.array_equal(default.U, explicit.U)


def test_bad_omega_rejected():
    # a config's omega is type-checked; an out-of-range value is ignored
    with pytest.raises(InvalidConfigurationError, match="'solver.omega'"):
        cli.ExperimentConfig.from_dict(dict(OMEGA_CONFIG, solver={"method": "psor", "omega": "x"}))
    Us = [cli.run_solve(cli.ExperimentConfig.from_dict(dict(OMEGA_CONFIG, solver=solver)))[3].U
          for solver in ({"method": "psor"}, {"method": "psor", "omega": 2.5})]
    assert np.array_equal(*Us)


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
        sol = sg.solve_active_set(form, problem, tol=1e-12)
        errs.append(np.abs(sol.U - g).max())
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert orders.min() >= 1.8


# -- penalized cross-check (tests/conftest.py) ----------------------------------


def test_penalized_inactive_matches_unconstrained():
    a = 0.25
    grid = sg.build_grid(1, 1.0, 1 / 32, 1 / 32, a)
    _, Y = grid.node_mesh()
    g = Y ** (1 - a)
    problem = sg.make_problem(grid, psi=-1.0, boundary=g)
    form = sg.assemble_energy(grid, problem)
    pen = penalized_reference(form, problem, eps=1e-2)
    ref = sg.solve_active_set(form, problem)
    assert np.abs(pen.U - ref.U).max() <= 1e-8


def test_penalized_ladder_decreases_to_psor():
    grid, problem, form, sol, _ = solved_profile(0.0, 1.0 / 32)
    dists = []
    for eps in (1e-1, 1e-2, 1e-3):
        pen = penalized_reference(form, problem, eps=eps)
        dists.append(np.abs(pen.U - sol.U).max())
    assert dists[2] < dists[1] < dists[0]


def test_penalized_gap_is_order_eps():
    grid, problem, form, sol, _ = solved_profile(0.0, 1.0 / 32)
    pen = penalized_reference(form, problem, eps=1e-2)
    comp_pen = sg.complementarity_report(pen, problem, form)
    comp_ref = sg.complementarity_report(sol, problem, form)
    assert comp_pen["min_gap_max"] > comp_ref["min_gap_max"]
    assert comp_pen["min_gap_max"] <= 10 * 1e-2
