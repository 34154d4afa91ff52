"""Coefficient validation, ellipticity reporting, and the normalization map."""

import numpy as np
import pytest

import signorini as sg
from signorini.errors import InvalidCoefficientError, InvalidConfigurationError

from conftest import TILTED_B


def test_identity_report():
    grid = sg.build_grid(1, 1.0, 1 / 16, 1 / 16, 0.0)
    field = sg.build_coefficients(grid, None)
    assert sg.ellipticity_report(field) == (1.0, 1.0, 0.0)
    assert field.is_identity


def test_affine_coefficient_bounds():
    grid = sg.build_grid(1, 1.0, 1 / 64, 1 / 64, 0.0)
    field = sg.build_coefficients(grid, [[{"poly": [[1.0, [0]], [0.1, [1]]]}]])
    lam, Lam, lip = sg.ellipticity_report(field)
    assert lam == pytest.approx(0.9, abs=1e-12)
    assert Lam == pytest.approx(1.1, abs=1e-12)
    assert lip == pytest.approx(0.1, rel=1e-10)


def test_asymmetric_rejected():
    grid = sg.build_grid(2, 1.0, 0.25, 0.25, 0.0)
    desc = [[1.0, 0.1], [0.2, 1.0]]  # b12 != b21
    with pytest.raises(InvalidCoefficientError):
        sg.build_coefficients(grid, desc)


def test_nonpositive_rejected():
    grid = sg.build_grid(1, 1.0, 0.25, 0.25, 0.0)
    with pytest.raises(InvalidCoefficientError):
        sg.build_coefficients(grid, [[-1.0]])



@pytest.mark.parametrize("k", range(9))
def test_large_constant_coefficients_accepted(k):
    # the eigenvalues are the ellipticity bounds; no sampled check can fail on round-off
    grid = sg.build_grid(2, 1.0, 0.25, 0.25, 0.0)
    field = sg.build_coefficients(grid, [[10.0**k, 0.0], [0.0, 10.0**k]])
    assert sg.ellipticity_report(field) == (10.0**k, 10.0**k, 0.0)

def test_block_structure_of_full_matrix():
    grid = sg.build_grid(2, 1.0, 0.25, 0.25, 0.0)
    field = sg.build_coefficients(grid, [[1.5, 0.2], [0.2, 1.0]])
    A = field.eval_A(np.array([[0.1, -0.3, 0.5]]))
    assert A.shape == (1, 3, 3)
    assert A[0, 2, 2] == 1.0
    assert A[0, 0, 2] == A[0, 2, 0] == A[0, 1, 2] == A[0, 2, 1] == 0.0


def test_random_spd_table_ordering():
    grid = sg.build_grid(2, 1.0, 0.25, 0.25, 0.0)
    rng = np.random.default_rng(7)
    shape = tuple(len(x) for x in grid.xs)
    M = rng.standard_normal(shape + (2, 2)) * 0.2
    table = np.einsum("...ij,...kj->...ik", M, M) + 1.5 * np.eye(2)
    field = sg.build_coefficients(grid, table)
    lam, Lam, lip = sg.ellipticity_report(field)
    assert 0 < lam <= Lam
    # report is deterministic
    assert sg.ellipticity_report(field) == (lam, Lam, lip)


def test_problem_requires_supported_exponent():
    grid = sg.build_grid(1, 1.0, 0.25, 0.25, -0.5)
    with pytest.raises(InvalidConfigurationError):
        sg.make_problem(grid)


# -- normalization ----------------------------------------------------------


def test_normalize_identity_is_exact():
    grid = sg.build_grid(1, 1.0, 1 / 16, 1 / 16, 0.0)
    problem = sg.make_problem(grid, boundary={"poly": [[1.0, [1]]]})
    X, Y = grid.node_mesh()
    U = X + 0.5 * Y
    coeff, S = sg.normalize_at(grid, problem.coeff, [0.0])
    pts = np.stack([X, Y], axis=-1).reshape(-1, 2)
    assert np.allclose(sg.FieldSampler(grid, U, ([0.0], S)).sample(pts), U.ravel(), atol=1e-13)
    B0 = coeff.eval_B(np.zeros((1, 1)))
    assert np.abs(B0 - 1.0).max() <= 1e-12


def test_normalize_constant_coefficient_rescales_axis():
    grid = sg.build_grid(1, 1.0, 1 / 32, 1 / 32, 0.0)
    coeff = sg.build_coefficients(grid, [[4.0]])
    X, Y = grid.node_mesh()
    new_coeff, S = sg.normalize_at(grid, coeff, [0.0])
    # linear field: U'(x, y) = U(2x) = 2x where the map stays in the box,
    # and the box's edge value where it leaves it
    p = np.stack([X, Y], axis=-1).reshape(-1, 2)
    samples = sg.FieldSampler(grid, X.copy(), ([0.0], S)).sample(p)
    assert np.allclose(samples, np.clip(2.0 * p[:, 0], -1.0, 1.0), atol=1e-12)
    B0 = new_coeff.eval_B(np.zeros(1))
    assert np.abs(B0 - np.eye(1)).max() <= 1e-12


def test_normalize_defining_property_generic():
    grid = sg.build_grid(2, 1.0, 1 / 8, 1 / 8, 0.25)
    desc = [[{"poly": [[1.3, [0, 0]], [0.1, [1, 0]]]}, 0.2], [0.2, {"poly": [[1.0, [0, 0]], [-0.05, [0, 1]]]}]]
    coeff = sg.build_coefficients(grid, desc)
    x0 = np.array([0.25, -0.25])
    new_coeff, S = sg.normalize_at(grid, coeff, x0)
    B0 = new_coeff.eval_B(np.zeros((1, 2)))
    assert np.abs(B0 - np.eye(2)).max() <= 1e-12
    assert np.abs(S @ S - coeff.eval_B(x0)).max() <= 1e-12
    # the sampler reads a field at x0 + S p: a linear field exactly
    X1, X2, Y = grid.node_mesh()
    p = np.array([[0.1, -0.2, 0.3], [-0.3, 0.05, 0.0]])
    q = x0 + p[:, :2] @ S.T
    got = sg.FieldSampler(grid, 2.0 * X1 - X2 + Y, (x0, S)).sample(p)
    assert np.allclose(got, 2.0 * q[:, 0] - q[:, 1] + p[:, 2], atol=1e-12)


def test_normalize_kron_evaluator_matches_the_congruence():
    # one product with kron(S^-1, S^-1^T)^T against S^-1 B S^-1 as stacked
    # matmuls, in ulps of each matrix's largest entry
    grid = sg.build_grid(2, 1.0, 1 / 16, 1 / 16, 0.5)
    coeff = sg.build_coefficients(grid, TILTED_B)
    rng = np.random.default_rng(3)
    pts = rng.uniform(-1.0, 1.0, (4096, 2))
    for x0 in ([-1 / 16, 0.0], [-1 / 16, 0.25], [0.0, -0.5]):
        x0 = np.array(x0)
        new_coeff, S = sg.normalize_at(grid, coeff, x0)
        w, V = np.linalg.eigh(coeff.eval_B(x0))
        S_inv = (V / np.sqrt(w)) @ V.T
        ref = S_inv @ coeff.eval_B(x0 + pts @ S.T) @ S_inv
        got = new_coeff.eval_B(pts)
        assert got.shape == ref.shape == (4096, 2, 2)
        ulp = np.spacing(np.abs(ref).max(axis=(-2, -1)))[:, None, None]
        assert (np.abs(got - ref) <= 4 * ulp).all()
        thin = np.stack(np.meshgrid(*grid.xs, indexing="ij"), axis=-1)
        assert np.array_equal(new_coeff.table, new_coeff.eval_B(thin))
