"""Coefficient validation, ellipticity bounds, and the frame at a thin point."""

import numpy as np
import pytest

import signorini as sg
from signorini.errors import InvalidCoefficientError, InvalidConfigurationError

from signorini.functionals import frame_factors
from signorini.grid import interpolate

from conftest import TILTED_B, Lam_of


def test_identity_report():
    grid = sg.build_grid(1, 1.0, 1 / 16, 1 / 16, 0.0)
    field = sg.build_coefficients(grid, None)
    assert (field.lam, Lam_of(field), field.lip) == (1.0, 1.0, 0.0)
    assert field.is_identity


def test_affine_coefficient_bounds():
    grid = sg.build_grid(1, 1.0, 1 / 64, 1 / 64, 0.0)
    field = sg.build_coefficients(grid, [[{"poly": [[1.0, [0]], [0.1, [1]]]}]])
    lam, Lam, lip = field.lam, Lam_of(field), field.lip
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
    assert (field.lam, Lam_of(field), field.lip) == (10.0**k, 10.0**k, 0.0)


def test_random_spd_table_ordering():
    grid = sg.build_grid(2, 1.0, 0.25, 0.25, 0.0)
    rng = np.random.default_rng(7)
    shape = tuple(len(x) for x in grid.xs)
    M = rng.standard_normal(shape + (2, 2)) * 0.2
    table = np.einsum("...ij,...kj->...ik", M, M) + 1.5 * np.eye(2)
    field = sg.build_coefficients(grid, table)
    lam, Lam = field.lam, Lam_of(field)
    assert 0 < lam <= Lam
    # lam is computed once: a second read returns the same value
    assert field.lam == lam


def test_problem_requires_supported_exponent():
    grid = sg.build_grid(1, 1.0, 0.25, 0.25, -0.5)
    with pytest.raises(InvalidConfigurationError):
        sg.make_problem(grid)


# -- the frame at a thin point ----------------------------------------------


def test_normalize_identity_is_exact():
    grid = sg.build_grid(1, 1.0, 1 / 16, 1 / 16, 0.0)
    problem = sg.make_problem(grid, boundary={"poly": [[1.0, [1]]]})
    X, Y = grid.node_mesh()
    U = X + 0.5 * Y
    S = sg.normalize_at(grid, problem.coeff, [0.0])
    pts = np.stack([X, Y], axis=-1).reshape(-1, 2)
    assert np.allclose(sg.FieldSampler(grid, U, ([0.0], S)).sample(pts), U.ravel(), atol=1e-13)
    assert np.abs(S - 1.0).max() <= 1e-12


def test_normalize_constant_coefficient_rescales_axis():
    grid = sg.build_grid(1, 1.0, 1 / 32, 1 / 32, 0.0)
    coeff = sg.build_coefficients(grid, [[4.0]])
    X, Y = grid.node_mesh()
    S = sg.normalize_at(grid, coeff, [0.0])
    assert np.abs(S - 2.0).max() <= 1e-12
    # linear field: U'(x, y) = U(2x) = 2x where the map stays in the box,
    # and the box's edge value where it leaves it
    p = np.stack([X, Y], axis=-1).reshape(-1, 2)
    samples = sg.FieldSampler(grid, X.copy(), ([0.0], S)).sample(p)
    assert np.allclose(samples, np.clip(2.0 * p[:, 0], -1.0, 1.0), atol=1e-12)
    # the frame's coefficient matrix S^-1 B S^-1 is the identity everywhere:
    # mu~ = 1 at the samples off the origin
    p = p[np.hypot(p[:, 0], p[:, 1]) > 0]
    _, mu, _ = frame_factors(grid, coeff, p, p[:, :1] @ S.T, np.linalg.inv(S))
    assert np.abs(mu - 1.0).max() <= 1e-12


def test_normalize_defining_property_generic():
    grid = sg.build_grid(2, 1.0, 1 / 8, 1 / 8, 0.25)
    desc = [[{"poly": [[1.3, [0, 0]], [0.1, [1, 0]]]}, 0.2], [0.2, {"poly": [[1.0, [0, 0]], [-0.05, [0, 1]]]}]]
    coeff = sg.build_coefficients(grid, desc)
    x0 = np.array([0.25, -0.25])
    S = sg.normalize_at(grid, coeff, x0)
    S_inv = np.linalg.inv(S)
    assert np.abs(S_inv @ coeff.eval_B(x0) @ S_inv - np.eye(2)).max() <= 1e-12
    assert np.abs(S @ S - coeff.eval_B(x0)).max() <= 1e-12
    assert np.abs(S - S.T).max() <= 4 * np.spacing(np.abs(S).max())  # symmetric to round-off
    # the sampler reads a field at x0 + S p: a linear field exactly
    X1, X2, Y = grid.node_mesh()
    p = np.array([[0.1, -0.2, 0.3], [-0.3, 0.05, 0.0]])
    q = x0 + p[:, :2] @ S.T
    got = sg.FieldSampler(grid, 2.0 * X1 - X2 + Y, (x0, S)).sample(p)
    assert np.allclose(got, 2.0 * q[:, 0] - q[:, 1] + p[:, 2], atol=1e-12)


def test_frame_factors_match_the_congruence():
    # in the frame (x0, S) the form <B(X) z, z>, z = S^-1 p, and the trace
    # and divergence terms of la_r against the frame's matrix S^-1 B(X) S^-1
    # by stacked matmuls, X = x0 + S p: the form (mu~ |P|^2) to a few ulps
    # of its scale |S^-1 B S^-1| |P|^2, la_r to 1e-13 relative
    a = 0.5
    grid = sg.build_grid(2, 1.0, 1 / 16, 1 / 16, a)
    coeff = sg.build_coefficients(grid, TILTED_B)
    rng = np.random.default_rng(3)
    P = rng.uniform(-1.0, 1.0, (4096, 3))
    P[:, 2] = np.abs(P[:, 2])
    p, y2, r2 = P[:, :2], P[:, 2] ** 2, (P**2).sum(axis=1)
    for x0 in ([-1 / 16, 0.0], [-1 / 16, 0.25], [0.0, -0.5]):
        x0 = np.array(x0)
        S = sg.normalize_at(grid, coeff, x0)
        S_inv = np.linalg.inv(S)
        X = x0 + p @ S.T
        Bn = S_inv @ coeff.eval_B(X) @ S_inv
        form = np.einsum("kij,ki,kj->k", Bn, p, p) + y2
        _, mu, got_lar = frame_factors(grid, coeff, P, X, S_inv, la_r=True)
        ulp = np.spacing(np.abs(Bn).max(axis=(-2, -1)) * r2)
        assert (np.abs(mu * r2 - form) <= 8 * ulp).all()
        assert np.allclose(mu, form / r2, rtol=1e-14, atol=0.0)
        div = np.stack([interpolate(grid.xs, d, X) for d in coeff.divergence], axis=-1)
        lar = (np.trace(Bn, axis1=-2, axis2=-1) + 1.0 + a - form / r2
               + np.einsum("kj,kj->k", div @ S_inv, p)) / np.sqrt(r2)
        assert np.abs(got_lar / lar - 1.0).max() <= 1e-13
