"""Assembly, residual consistency, traces."""

import numpy as np
import pytest
from scipy.integrate import quad

import signorini as sg
from signorini.operator import energy, interior_mask
from signorini.solver import near_optimal_omega

from conftest import graded_grid, profile_boundary


def make_identity_problem(n, h, a):
    grid = sg.build_grid(n, 1.0, h, h, a)
    return grid, sg.make_problem(grid)


def test_five_point_stencil_a0():
    grid, problem = make_identity_problem(1, 0.25, 0.0)
    form = sg.assemble_energy(grid, problem)
    K = form.stiffness.toarray()
    ny = len(grid.ys)
    i, j = len(grid.xs[0]) // 2, ny // 2
    row = K[i * ny + j].reshape(grid.node_shape)
    hx, hy = grid.hx, grid.hy
    vol = hx * hy
    assert row[i, j] == pytest.approx(vol * (2 / hx**2 + 2 / hy**2))
    assert row[i + 1, j] == row[i - 1, j] == pytest.approx(-vol / hx**2)
    assert row[i, j + 1] == row[i, j - 1] == pytest.approx(-vol / hy**2)
    assert np.count_nonzero(row) == 5


def test_seven_point_stencil_n2_a0():
    grid, problem = make_identity_problem(2, 0.25, 0.0)
    form = sg.assemble_energy(grid, problem)
    shape = grid.node_shape
    mid = tuple(s // 2 for s in shape)
    row = form.stiffness[np.ravel_multi_index(mid, shape)].toarray().reshape(shape)
    assert np.count_nonzero(row) == 7
    vol = grid.hx**2 * grid.hy
    assert row[mid] == pytest.approx(vol * (4 / grid.hx**2 + 2 / grid.hy**2))


def test_symmetry_and_psd():
    grid = sg.build_grid(2, 1.0, 0.25, 0.25, 0.5)
    coeff = sg.build_coefficients(grid, [[1.2, 0.3], [0.3, 1.0]])
    problem = sg.make_problem(grid, coeff=coeff)
    form = sg.assemble_energy(grid, problem)
    K = form.stiffness
    asym = abs(K - K.T).max()
    assert asym <= 1e-14 * abs(K).max()
    rng = np.random.default_rng(3)
    for _ in range(5):
        v = rng.standard_normal(K.shape[0])
        assert v @ (K @ v) >= -1e-12 * (v @ v)


@pytest.mark.parametrize("a", [0.0, 0.5])
def test_ypower_residual_vanishes(a):
    grid, problem = make_identity_problem(1, 1 / 32, a)
    form = sg.assemble_energy(grid, problem)
    _, Y = grid.node_mesh()
    U = Y ** (1.0 - a)
    assert sg.residual_l2(form, U) <= 1e-12


@pytest.mark.parametrize("a", [0.0, 0.5])
def test_even_poly_residual_order(a):
    norms = []
    for h in (1 / 16, 1 / 32, 1 / 64):
        grid, problem = make_identity_problem(1, h, a)
        form = sg.assemble_energy(grid, problem)
        X, Y = grid.node_mesh()
        U = X**2 - Y**2 / (1.0 + a)
        norms.append(sg.residual_l2(form, U))
    if max(norms) <= 1e-12:
        return  # exact at a=0
    orders = np.log2(np.array(norms[:-1]) / np.array(norms[1:]))
    assert orders.min() >= 1.9


@pytest.mark.parametrize("a", [0.0, 0.5])
def test_n2_cross_coupling_residual_order(a):
    # constant A with b12 = 0.3: U = x1 x2 - 0.3 y^2/(1+a) solves the
    # weighted equation exactly, exercising the off-diagonal assembly
    norms = []
    for h in (1 / 8, 1 / 16, 1 / 32):
        grid = sg.build_grid(2, 1.0, h, h, a)
        coeff = sg.build_coefficients(grid, [[1.0, 0.3], [0.3, 1.0]])
        problem = sg.make_problem(grid, coeff=coeff)
        form = sg.assemble_energy(grid, problem)
        X1, X2, Y = grid.node_mesh()
        U = X1 * X2 - 0.3 * Y**2 / (1.0 + a)
        r = sg.apply_operator(form, U)
        ri = r[interior_mask(grid)]
        norms.append(np.sqrt((ri**2).sum() * grid.hx**2 * grid.hy))
    if max(norms) <= 1e-12:
        return
    orders = np.log2(np.array(norms[:-1]) / np.array(norms[1:]))
    assert orders.min() >= 1.9


def test_apply_operator_zero_cases():
    grid, problem = make_identity_problem(1, 0.25, 0.5)
    form = sg.assemble_energy(grid, problem)
    assert np.all(sg.apply_operator(form, np.zeros(grid.node_shape)) == 0.0)


def test_profile_residual_away_from_contact():
    # classical solution away from the free boundary: interior residual
    # decays at >= 2nd order once a fixed corner around it is removed
    a = 0.0
    norms = []
    for h in (1 / 16, 1 / 32, 1 / 64):
        grid, problem = make_identity_problem(1, h, a)
        form = sg.assemble_energy(grid, problem)
        U = profile_boundary(grid, a)
        r = sg.apply_operator(form, U)
        X, Y = grid.node_mesh()
        # drop only the rows whose cells touch the contact ray
        touch = (X <= grid.hx) & (Y <= 1.5 * grid.hy)
        keep = interior_mask(grid) & ~touch
        norms.append(np.sqrt((r[keep] ** 2).sum() * grid.hx * grid.hy))
    orders = np.log2(np.array(norms[:-1]) / np.array(norms[1:]))
    assert orders.min() >= 1.9


def test_energy_consistency_even_field():
    # <KU,U> -> int <A grad U, grad U> y^a for a smooth field even in y
    a = 0.5

    def fx(x):
        return np.cos(2.0 * x)

    exact_x = quad(lambda x: 4 * np.sin(2 * x) ** 2, -1, 1)[0]
    exact_qx = quad(lambda y: (1 - y**2) ** 2 * y**a, 0, 1)[0]
    exact_y = quad(lambda x: np.cos(2 * x) ** 2, -1, 1)[0]
    exact_qy = quad(lambda y: 4 * y**2 * y**a, 0, 1)[0]
    exact = exact_x * exact_qx + exact_y * exact_qy
    errs = []
    for h in (1 / 16, 1 / 32, 1 / 64):
        grid, problem = make_identity_problem(1, h, a)
        form = sg.assemble_energy(grid, problem)
        X, Y = grid.node_mesh()
        U = fx(X) * (1.0 - Y**2)
        errs.append(abs(energy(form, U) * 2 - exact))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert orders.min() >= 1.9


def test_galerkin_pairing_symmetry():
    grid, problem = make_identity_problem(1, 1 / 16, 0.25)
    form = sg.assemble_energy(grid, problem)
    rng = np.random.default_rng(0)
    u = rng.standard_normal(grid.n_nodes)
    v = rng.standard_normal(grid.n_nodes)
    lhs = u @ (form.stiffness @ v)
    rhs = v @ (form.stiffness @ u)
    assert lhs == pytest.approx(rhs, rel=1e-13)


# -- traces -------------------------------------------------------------------


@pytest.mark.parametrize("a", [0.0, 0.25, 0.75])
def test_trace_of_singular_power_is_exact(a):
    grid = sg.build_grid(1, 1.0, 1 / 16, 1 / 16, a)
    _, Y = grid.node_mesh()
    tr = sg.neumann_trace(grid, Y ** (1.0 - a))
    assert np.allclose(tr, 1.0 - a, atol=1e-12)


@pytest.mark.parametrize("a", [0.0, 0.25, 0.75])
def test_trace_of_singular_power_is_exact_on_graded_layers(a):
    grid = graded_grid(1, 1 / 33, a)
    _, Y = grid.node_mesh()
    assert grid.ys[1] < 0.1 * grid.hy
    tr = sg.neumann_trace(grid, 2.0 + 3.0 * Y ** (1.0 - a))
    assert np.allclose(tr, 3.0 * (1.0 - a), rtol=1e-12)


@pytest.mark.parametrize("n, h", [(1, 1 / 32), (1, 1 / 97), (2, 1 / 13)])
@pytest.mark.parametrize("a", [0.0, 0.5])
def test_trace_on_uniform_layers_is_the_hy_quotient_bit_for_bit(n, h, a):
    # ys[1] is the float hy on a uniform grid; conjugate_variable's row 0 is the trace
    grid = sg.build_grid(n, 1.0, h, h, a)
    U = np.random.default_rng(n).standard_normal(grid.node_shape)
    old = (1.0 - a) * (U[..., 1] - U[..., 0]) / grid.hy ** (1.0 - a)
    assert np.array_equal(sg.neumann_trace(grid, U), old)
    assert np.array_equal(sg.conjugate_variable(grid, U)[..., 0], old)


def test_trace_of_even_field_vanishes_under_refinement():
    a = 0.5
    vals = []
    for h in (1 / 16, 1 / 32, 1 / 64):
        grid = sg.build_grid(1, 1.0, h, h, a)
        _, Y = grid.node_mesh()
        vals.append(np.abs(sg.neumann_trace(grid, 1.0 + Y**2)).max())
    assert vals[2] < vals[1] < vals[0]
    assert vals[2] < 0.07


def test_trace_profile_neumann_side():
    a = 0.0
    vals = []
    for h in (1 / 32, 1 / 64, 1 / 128):
        grid = sg.build_grid(1, 1.0, h, h, a)
        U = profile_boundary(grid, a)
        tr = sg.neumann_trace(grid, U)
        xs = grid.xs[0]
        vals.append(np.abs(tr[xs >= 0.2]).max())
    assert vals[2] < vals[1] < vals[0]


def test_trace_flux_compatibility():
    # discrete interior solve with f=0: summed thin-row residuals reproduce
    # -sum(trace * thin cell area); tangential terms telescope, leaving O(h)
    a = 0.5
    gaps = []
    for h in (1 / 16, 1 / 32, 1 / 64):
        grid = sg.build_grid(1, 1.0, h, h, a)
        problem = sg.make_problem(grid, boundary=profile_boundary(grid, a))
        form = sg.assemble_energy(grid, problem)
        sol = sg.solve_psor(form, problem, omega=near_optimal_omega(grid),
                            tol=1e-13, max_iter=200000)
        r = sg.apply_operator(form, sol.U).ravel()[form.thin_rows]
        ny = len(grid.ys)
        tr = sol.trace.ravel()[form.thin_rows // ny]
        gaps.append(abs(r.sum() + (tr * grid.thin_cell_area).sum()))
        assert gaps[-1] <= 0.2 * h
    assert gaps[2] < gaps[1] < gaps[0]
