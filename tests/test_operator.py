"""Assembly, residual consistency, traces."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.integrate import quad

import signorini as sg
from signorini.grid import corner_offsets
from signorini.operator import _energy_terms, cell_energy_density

from conftest import (
    TILTED_B, apply_operator, energy, graded_grid, interior_mask, profile_boundary, residual_l2,
)


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


def _coo_assembly(grid, problem):
    """Reference stiffness from per-cell COO triplets: every cell's
    coefficient for every corner pair (p, q), in the order of p, then q,
    summed into CSR by scipy."""
    base = np.meshgrid(*[np.arange(s) for s in grid.cell_shape], indexing="ij")
    corner_idx = np.stack([np.ravel_multi_index(tuple(b + o for b, o in zip(base, c)),
                                                grid.node_shape).ravel()
                           for c in corner_offsets(grid.n)], axis=1)
    terms = _energy_terms(grid, problem)
    rows, cols, vals = [], [], []
    for p in range(corner_idx.shape[1]):
        for q in range(corner_idx.shape[1]):
            coef = np.zeros(len(corner_idx))
            for E, c, m in terms:
                if E[p, q]:
                    coef += E[p, q] * c * m
            nz = coef != 0.0
            rows.append(corner_idx[nz, p])
            cols.append(corner_idx[nz, q])
            vals.append(coef[nz])
    K = sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                      shape=(grid.n_nodes, grid.n_nodes))
    K.sum_duplicates()
    return K


@pytest.mark.parametrize("n, h, a, coefficients", [
    (1, 1 / 32, 0.5, None),
    (1, 1 / 24, 0.25, [[{"poly": [[1.0, [0]], [0.3, [1]]]}]]),
    (2, 1 / 8, 0.5, TILTED_B),
    (2, 1 / 16, 0.0, None),
], ids=["n1_identity", "n1_b11", "n2_tilted", "n2_identity"])
def test_stencil_assembly_matches_coo_triplets(n, h, a, coefficients):
    grid = sg.build_grid(n, 1.0, h, h, a)
    problem = sg.make_problem(grid, coeff=sg.build_coefficients(grid, coefficients))
    K = sg.assemble_energy(grid, problem).stiffness
    ref = _coo_assembly(grid, problem)
    assert K.has_canonical_format
    assert np.array_equal(K.indptr, ref.indptr) and np.array_equal(K.indices, ref.indices)
    if n == 1:
        # a row holds at most 16 triplets, which scipy's index sort keeps in
        # input order, so both sum each entry's terms in the order of p
        assert np.array_equal(K.data, ref.data)
    else:
        # up to 64 triplets per row, whose order scipy's unstable sort
        # changes: each entry's up to 8 terms sum in another order
        assert np.all(np.abs(K.data - ref.data) <= 4 * np.spacing(np.abs(ref.data)))


def test_assembly_peak_memory_is_a_small_multiple_of_the_matrix():
    grid = sg.build_grid(2, 1.0, 1 / 16, 1 / 16, 0.5)
    problem = sg.make_problem(grid, coeff=sg.build_coefficients(grid, TILTED_B))
    tracemalloc.start()
    try:
        K = sg.assemble_energy(grid, problem).stiffness
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 * (K.data.nbytes + K.indices.nbytes + K.indptr.nbytes)


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
    assert residual_l2(form, U) <= 1e-12


@pytest.mark.parametrize("a", [0.0, 0.5])
def test_even_poly_residual_order(a):
    norms = []
    for h in (1 / 16, 1 / 32, 1 / 64):
        grid, problem = make_identity_problem(1, h, a)
        form = sg.assemble_energy(grid, problem)
        X, Y = grid.node_mesh()
        U = X**2 - Y**2 / (1.0 + a)
        norms.append(residual_l2(form, U))
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
        r = apply_operator(form, U)
        ri = r[interior_mask(grid)]
        norms.append(np.sqrt((ri**2).sum() * grid.hx**2 * grid.hy))
    if max(norms) <= 1e-12:
        return
    orders = np.log2(np.array(norms[:-1]) / np.array(norms[1:]))
    assert orders.min() >= 1.9


def test_apply_operator_zero_cases():
    grid, problem = make_identity_problem(1, 0.25, 0.5)
    form = sg.assemble_energy(grid, problem)
    assert np.all(apply_operator(form, np.zeros(grid.node_shape)) == 0.0)


def test_profile_residual_away_from_contact():
    # classical solution away from the free boundary: interior residual
    # decays at >= 2nd order once a fixed corner around it is removed
    a = 0.0
    norms = []
    for h in (1 / 16, 1 / 32, 1 / 64):
        grid, problem = make_identity_problem(1, h, a)
        form = sg.assemble_energy(grid, problem)
        U = profile_boundary(grid, a)
        r = apply_operator(form, U)
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



@pytest.mark.parametrize("n, coefficients", [
    (1, [[{"poly": [[1.0, [0]], [0.3, [1]]]}]]),
    (2, TILTED_B),
])
def test_cell_energy_densities_sum_to_the_stiffness_form(n, coefficients):
    # the per-cell densities behind D and I use the assembly's quadratic form
    grid = sg.build_grid(n, 1.0, 1 / 8, 1 / 8, 0.5)
    problem = sg.make_problem(grid, coeff=sg.build_coefficients(grid, coefficients))
    K = sg.assemble_energy(grid, problem).stiffness
    U = np.random.default_rng(0).standard_normal(grid.node_shape)
    total = cell_energy_density(grid, problem, U).sum()
    assert total == pytest.approx(U.ravel() @ (K @ U.ravel()), rel=1e-12)


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
        sol = sg.solve_active_set(form, problem, tol=1e-13)
        r = apply_operator(form, sol.U).ravel()[form.thin_rows]
        ny = len(grid.ys)
        tr = sol.trace.ravel()[form.thin_rows // ny]
        gaps.append(abs(r.sum() + (tr * grid.thin_cell_area).sum()))
        assert gaps[-1] <= 0.2 * h
    assert gaps[2] < gaps[1] < gaps[0]
