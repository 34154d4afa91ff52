"""Coefficient validation, ellipticity reporting, and the normalization map."""

import numpy as np
import pytest

import signorini as sg
from signorini.errors import InvalidCoefficientError, InvalidConfigurationError


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
    new_problem, new_U = sg.normalize_at(problem, U, [0.0])
    assert np.allclose(new_U, U, atol=1e-13)
    B0 = new_problem.coeff.eval_B(np.zeros((1, 1)))
    assert np.abs(B0 - 1.0).max() <= 1e-12


def test_normalize_constant_coefficient_rescales_axis():
    grid = sg.build_grid(1, 1.0, 1 / 32, 1 / 32, 0.0)
    coeff = sg.build_coefficients(grid, [[4.0]])
    problem = sg.make_problem(grid, coeff=coeff)
    X, Y = grid.node_mesh()
    U = X.copy()
    new_problem, new_U = sg.normalize_at(problem, U, [0.0])
    # linear field: U'(x, y) = U(2x) = 2x where the map stays in the box
    sel = np.abs(X) <= 0.5
    assert np.allclose(new_U[sel], 2.0 * X[sel], atol=1e-12)
    B0 = new_problem.coeff.eval_B(np.zeros(1))
    assert np.abs(B0 - np.eye(1)).max() <= 1e-12


def test_normalize_defining_property_generic():
    grid = sg.build_grid(2, 1.0, 1 / 8, 1 / 8, 0.25)
    desc = [[{"poly": [[1.3, [0, 0]], [0.1, [1, 0]]]}, 0.2], [0.2, {"poly": [[1.0, [0, 0]], [-0.05, [0, 1]]]}]]
    coeff = sg.build_coefficients(grid, desc)
    problem = sg.make_problem(grid, coeff=coeff)
    X1, X2, Y = grid.node_mesh()
    new_problem, _ = sg.normalize_at(problem, X1**2 + X2 + Y ** 0.75, [0.25, -0.25])
    B0 = new_problem.coeff.eval_B(np.zeros((1, 2)))
    assert np.abs(B0 - np.eye(2)).max() <= 1e-12
