"""Grid construction, weighted measures, sphere rules, ball coverage."""

import numpy as np
import pytest
from scipy.integrate import quad

import signorini as sg
from signorini.errors import InvalidConfigurationError, UnsupportedRadiusError
from signorini.grid import _gauss_jacobi, _weighted_layer_integrals, ball_sums, interpolate

from conftest import (
    ball_cells, ball_weighted_measure, coverage_field, halfsphere_weighted_area, node_radii,
    total_weighted_measure,
)


def test_unweighted_cell_measures_are_volumes():
    grid = sg.build_grid(1, 1.0, 0.5, 0.5, 0.0)
    assert grid.cell_shape == (4, 2)
    assert np.allclose(grid.cell_measures, 0.25)


def test_linear_weight_first_layer_measure():
    # int_0^{1/2} y dy = 1/8 over an x-extent of 1/2
    ys = np.array([0.0, 0.5, 1.0])
    layers = _weighted_layer_integrals(ys, 1.0)
    assert layers[0] == pytest.approx(0.125, abs=0.0)
    assert 0.5 * layers[0] == pytest.approx(0.0625)


def test_total_measure_matches_closed_form_n2():
    grid = sg.build_grid(2, 1.0, 0.25, 0.25, 0.5)
    assert total_weighted_measure(grid) == pytest.approx(8.0 / 3.0)
    assert grid.cell_measures.sum() == pytest.approx(8.0 / 3.0, rel=1e-14)


@pytest.mark.parametrize("a", [0.0, 0.25, 0.75, -0.5])
@pytest.mark.parametrize("n", [1, 2])
def test_measures_positive_and_telescoping(n, a):
    grid = sg.build_grid(n, 1.0, 0.25, 0.2, a)
    m = grid.cell_measures
    assert np.all(m > 0) and np.all(np.isfinite(m))
    assert m.sum() == pytest.approx(total_weighted_measure(grid), rel=1e-13)


@pytest.mark.parametrize(
    "bad",
    [
        dict(n=3, R=1, hx=0.1, hy=0.1, a=0.0),
        dict(n=1, R=-1, hx=0.1, hy=0.1, a=0.0),
        dict(n=1, R=1, hx=2.0, hy=0.1, a=0.0),
        dict(n=1, R=1, hx=0.1, hy=0.1, a=1.5),
        dict(n=1, R=np.inf, hx=0.1, hy=0.1, a=0.0),
    ],
)
def test_build_grid_rejects_bad_parameters(bad):
    with pytest.raises(InvalidConfigurationError):
        sg.build_grid(**bad)


# -- sphere rules -----------------------------------------------------------


def test_halfcircle_length_a0():
    grid = sg.build_grid(1, 1.0, 1 / 16, 1 / 16, 0.0)
    rule = sg.sphere_quadrature(grid, 1.0, 64)
    assert rule.weights.sum() == pytest.approx(np.pi, rel=1e-9)
    assert np.all(rule.weights >= 0)


def test_halfcircle_weighted_a1():
    grid = sg.build_grid(1, 1.0, 1 / 16, 1 / 16, 0.0)
    rule = sg.sphere_quadrature(grid, 1.0, 64, a=1.0)
    assert rule.weights.sum() == pytest.approx(2.0, rel=1e-9)


@pytest.mark.parametrize("n,a", [(1, 0.5), (1, 0.25), (2, 0.5), (2, 0.0)])
def test_constant_integrates_to_weighted_area(n, a):
    grid = sg.build_grid(n, 1.0, 1 / 12, 1 / 12, a)
    for r in (0.5, 1.0):
        rule = sg.sphere_quadrature(grid, r, 32)
        exact = halfsphere_weighted_area(n, r, a)
        assert rule.weights.sum() == pytest.approx(exact, rel=1e-6)
        assert np.all(rule.weights >= 0)


def test_profile_square_integral():
    grid = sg.build_grid(1, 1.0, 1 / 16, 1 / 16, 0.0)
    rule = sg.sphere_quadrature(grid, 1.0, 64)
    th = np.arctan2(rule.points[:, 1], rule.points[:, 0])
    u = np.cos(1.5 * th)  # r = 1
    assert rule.integrate(u**2) == pytest.approx(np.pi / 2, abs=1e-4)


def test_sphere_rule_radius_checks():
    grid = sg.build_grid(1, 1.0, 1 / 16, 1 / 16, 0.0)
    with pytest.raises(UnsupportedRadiusError):
        sg.sphere_quadrature(grid, 1.5, 32)
    with pytest.raises(UnsupportedRadiusError):
        sg.sphere_quadrature(grid, 0.05, 32)
    with pytest.raises(InvalidConfigurationError):
        sg.sphere_quadrature(grid, 0.5, 4)


def _jacobi_norms(m, alpha, beta):
    """h_k = int P_k^2 (1-t)^alpha (1+t)^beta dt of the Jacobi polynomials, k < m."""
    from math import exp, lgamma

    ab = alpha + beta
    h = [2 ** (ab + 1) * exp(lgamma(alpha + 1) + lgamma(beta + 1) - lgamma(ab + 2))]
    for k in range(1, m):
        h.append(2 ** (ab + 1) / (2 * k + ab + 1) * exp(
            lgamma(k + alpha + 1) + lgamma(k + beta + 1) - lgamma(k + ab + 1) - lgamma(k + 1)))
    return np.array(h)


@pytest.mark.parametrize("a", [0.0, 0.25, 0.5, 0.75])
@pytest.mark.parametrize("n", [1, 2])
def test_gauss_jacobi_rule_against_scipy(n, a):
    # every (alpha, beta) that sphere_quadrature builds: n = 1 and 2, the
    # exponents a, 0 and -a of the sphere columns; at n = 1 exponent 0
    # gives alpha + beta = -1, where the first off-diagonal is special
    from scipy.special import eval_jacobi, roots_jacobi

    for e in (a, 0.0, -a):
        alpha, beta = ((e - 1) / 2, (e - 1) / 2) if n == 1 else (0.0, e)
        for m in (8, 48, 64):
            t, w = _gauss_jacobi(m, alpha, beta)
            t_ref, w_ref = roots_jacobi(m, alpha, beta)
            assert np.abs(t - t_ref).max() <= 1e-15
            assert np.abs(w / w_ref - 1).max() <= 1e-10
            h = _jacobi_norms(m, alpha, beta)
            assert abs(w.sum() - h[0]) <= 1e-14 * h[0]
            P = np.array([eval_jacobi(k, alpha, beta, t) for k in range(m)])
            assert np.abs((P * w) @ P.T - np.diag(h)).max() <= 1e-13


def test_sphere_quadrature_refinement_order():
    # interpolation-driven error of a smooth field integral, three nested grids
    a = 0.5
    r = 0.7

    def f(x, y):
        return np.cos(2.0 * x) * (1.0 - y**2)

    exact = quad(
        lambda t: f(r * np.cos(t), r * np.sin(t)) ** 2 * np.sin(t) ** a * r ** (1 + a),
        0.0,
        np.pi,
        limit=200,
    )[0]
    errs = []
    for h in (1 / 16, 1 / 32, 1 / 64):
        grid = sg.build_grid(1, 1.0, h, h, a)
        X, Y = grid.node_mesh()
        sampler = sg.FieldSampler(grid, f(X, Y))
        rule = sg.sphere_quadrature(grid, r, 64)
        errs.append(abs(rule.integrate(sampler.sample(rule.points) ** 2) - exact))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert orders.min() >= 1.9


# -- ball coverage ----------------------------------------------------------


def test_ball_cells_full_radius():
    grid = sg.build_grid(1, 1.0, 1 / 8, 1 / 8, 0.0)
    cells = ball_cells(grid, 1.0)
    cov = coverage_field(cells, grid.cell_shape)
    centers = grid.cell_centers()
    dist = np.hypot(centers[0], centers[1])
    inside = dist <= 1.0 - np.hypot(grid.hx, grid.hy) / 2
    assert np.all(cov[inside] == 1.0)
    assert np.all((cells.fractions > 0) & (cells.fractions <= 1.0))


def test_ball_cells_small_radius_contains_origin_cells():
    grid = sg.build_grid(1, 1.0, 1 / 8, 1 / 8, 0.0)
    cells = ball_cells(grid, 2.5 * grid.hx / 8 + 0.26)  # any small-ish radius
    cov = coverage_field(cells, grid.cell_shape)
    # the two cells touching the origin at y=0
    i0 = len(grid.xs[0]) // 2
    assert cov[i0, 0] > 0 and cov[i0 - 1, 0] > 0


def test_ball_cells_half_disc_area():
    grid = sg.build_grid(1, 1.0, 1 / 64, 1 / 64, 0.0)
    cells = ball_cells(grid, 0.5)
    area = float((grid.cell_measures[cells.indices] * cells.fractions).sum())
    assert area == pytest.approx(np.pi * 0.25 / 2, rel=0.02)


def test_ball_cells_radius_check():
    grid = sg.build_grid(1, 1.0, 1 / 8, 1 / 8, 0.0)
    with pytest.raises(UnsupportedRadiusError):
        ball_cells(grid, 1.2)


@pytest.mark.parametrize("n,a", [(1, 0.5), (2, 0.25)])
def test_ball_measure_converges_with_subsampling(n, a):
    grid = sg.build_grid(n, 1.0, 1 / 16, 1 / 16, a)
    exact = ball_weighted_measure(n, 0.6, a)
    errs = []
    for nsub in (2, 4, 8):
        cells = ball_cells(grid, 0.6, nsub=nsub)
        approx = float((grid.cell_measures[cells.indices] * cells.fractions).sum())
        errs.append(abs(approx - exact))
    assert errs[2] < errs[0]
    assert errs[2] / exact < 5e-3


def test_box_midpoint_quadrature_order():
    # weighted box integral of a smooth field by exact measures x midpoints
    a = 0.5

    def f(x, y):
        return np.cos(x) * np.exp(-y) + y**2

    exact = quad(
        lambda y: (2 * np.sin(1.0) * np.exp(-y) + 2 * y**2) * y**a, 0, 1, limit=200
    )[0]
    errs = []
    for h in (1 / 8, 1 / 16, 1 / 32):
        grid = sg.build_grid(1, 1.0, h, h, a)
        XC, YC = grid.cell_centers()
        vals = f(XC, YC)
        approx = float((vals * grid.cell_measures).sum())
        errs.append(abs(approx - exact))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert orders.min() >= 1.8


# -- prefix-sum ball integrals ---------------------------------------------


@pytest.mark.parametrize("nsub", [2, 4])
@pytest.mark.parametrize("n, hx, hy, radii", [
    (1, 1 / 12, 1 / 10, None),
    (2, 1 / 12, 1 / 10, None),
    # the 40 default radii, whose shells overlap
    (2, 1 / 16, 1 / 16, "overlap"),
    # 40 radii from 0.1 (diag1d_fine's), whose shells leave gaps
    (1, 1 / 256, 1 / 256, "gaps"),
], ids=["1", "2", "2-overlapping-shells", "1-disjoint-shells"])
def test_ball_sums_match_ball_cells(n, hx, hy, radii, nsub):
    grid = sg.build_grid(n, 1.0, hx, hy, 0.5)
    rng = np.random.default_rng(n * 10 + nsub)
    densities = rng.random((2,) + grid.cell_shape) + 0.1
    shell = np.sqrt(n * grid.hx**2 + grid.hy**2)  # a shell's width in cell-centre distance
    if radii is None:
        radii = np.linspace(2.0 * max(grid.hx, grid.hy) * 1.001, grid.R, 17)
    elif radii == "overlap":
        radii = sg.default_r_grid(grid)
        assert np.diff(radii).max() < shell
    else:
        radii = sg.default_r_grid(grid, r_min=0.1)
        assert np.diff(radii).min() > shell
    sums = ball_sums(grid, densities, radii, nsub=nsub)
    assert sums.shape == (2, len(radii))
    for i, r in enumerate(radii):
        cells = ball_cells(grid, r, nsub=nsub)
        for k in range(2):
            ref = float((densities[k][cells.indices] * cells.fractions).sum())
            assert sums[k, i] == pytest.approx(ref, rel=1e-12)
    single = ball_sums(grid, densities[1], radii, nsub=nsub)
    assert single.shape == (len(radii),)
    assert np.allclose(single, sums[1], rtol=1e-14, atol=0.0)


def test_ball_sums_radius_check():
    grid = sg.build_grid(1, 1.0, 1 / 8, 1 / 8, 0.0)
    dens = np.ones(grid.cell_shape)
    for bad in (0.0, -0.5, 1.2, [0.5, 1.2]):
        with pytest.raises(UnsupportedRadiusError):
            ball_sums(grid, dens, bad)


def test_sphere_rule_arrays_read_only_and_unshared():
    grid = sg.build_grid(2, 1.0, 1 / 8, 1 / 8, 0.5)
    first = sg.sphere_quadrature(grid, 0.5, 16)
    assert not first.points.flags.writeable and not first.weights.flags.writeable
    with pytest.raises(ValueError):
        first.points[0, 0] = 1.0
    ref = first.points.copy()
    # a caller shifting a copy of the points (as decay_fit does) leaves
    # later rules of the same radius unchanged
    shifted = first.points.copy()
    shifted[:, :2] += 0.25
    again = sg.sphere_quadrature(grid, 0.5, 16)
    assert np.array_equal(again.points, ref)
    assert np.array_equal(again.weights, first.weights)
    scaled = sg.sphere_quadrature(grid, 1.0, 16)
    assert np.array_equal(scaled.points * 0.5, ref)


# -- off-node sampling ------------------------------------------------------


def _multilinear(coefs, pts):
    """sum over c in {0,1}^k of coefs[c] * prod_d x_d^{c_d} at points (m, k)."""
    k = pts.shape[-1]
    out = 0.0
    for c in np.ndindex(*(2,) * k):
        mono = np.prod([pts[:, d] ** c[d] for d in range(k)], axis=0)
        out = out + coefs[c] * mono.reshape(mono.shape + (1,) * (coefs.ndim - k))
    return out


def _random_points(rng, grid, m, pad=0.0):
    lo = np.r_[[-grid.R - pad] * grid.n, -pad]
    hi = np.r_[[grid.R + pad] * grid.n, grid.R + pad]
    return rng.uniform(lo, hi, (m, grid.n + 1))


@pytest.mark.parametrize("n", [1, 2])
def test_interpolate_exact_on_multilinear_with_trailing_axes(n):
    grid = sg.build_grid(n, 1.0, 1 / 8, 1 / 6, 0.5)
    rng = np.random.default_rng(n)
    axes = grid.xs + (grid.ys,)
    coefs = rng.standard_normal((2,) * (n + 1) + (n, n))
    nodes = np.stack(grid.node_mesh(), axis=-1).reshape(-1, n + 1)
    table = _multilinear(coefs, nodes).reshape(grid.node_shape + (n, n))
    # exact inside the box and, by linear extrapolation, outside it
    pts = _random_points(rng, grid, 200, pad=0.3)
    vals = interpolate(axes, table, pts)
    assert vals.shape == (200, n, n)
    assert np.allclose(vals, _multilinear(coefs, pts), rtol=0.0, atol=1e-13)
    # thin table, one point of shape (n,)
    thin = table[..., 0, :, :]
    thin_coefs = coefs[(slice(None),) * n + (0,)]
    assert np.allclose(interpolate(grid.xs, thin, pts[0, :n]),
                       _multilinear(thin_coefs, pts[:1, :n])[0], rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("a", [0.0, 0.25, 0.75])
@pytest.mark.parametrize("n", [1, 2])
def test_interpolate_first_layer_power_exact_on_singular_basis(n, a):
    grid = sg.build_grid(n, 1.0, 1 / 8, 1 / 8, a)
    rng = np.random.default_rng(7 + n)
    c0 = rng.standard_normal(n + 1)
    c1 = rng.standard_normal(n + 1)

    def field(pts):
        x = pts[..., :n]
        return (c0[0] + x @ c0[1:]) + (c1[0] + x @ c1[1:]) * pts[..., n] ** (1.0 - a)

    nodes = np.stack(grid.node_mesh(), axis=-1)
    pts = _random_points(rng, grid, 300)
    pts[:, -1] = rng.uniform(0.0, grid.ys[1], 300)
    vals = interpolate(grid.xs + (grid.ys,), field(nodes), pts, first_layer_power=1.0 - a)
    assert np.allclose(vals, field(pts), rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("n", [1, 2])
def test_interpolate_extrapolates_like_regular_grid_interpolator(n):
    from scipy.interpolate import RegularGridInterpolator

    grid = sg.build_grid(n, 1.0, 1 / 6, 1 / 5, 0.5)
    rng = np.random.default_rng(3 * n)
    axes = grid.xs + (grid.ys,)
    U = rng.standard_normal(grid.node_shape)
    pts = _random_points(rng, grid, 400, pad=0.5)
    ref = RegularGridInterpolator(axes, U, method="linear", bounds_error=False,
                                  fill_value=None)(pts)
    assert np.allclose(interpolate(axes, U, pts), ref, rtol=0.0, atol=1e-13)
    T = rng.standard_normal(grid.node_shape[:-1] + (n, n))
    ref = RegularGridInterpolator(grid.xs, T, method="linear", bounds_error=False,
                                  fill_value=None)(pts[:, :n])
    assert np.allclose(interpolate(grid.xs, T, pts[:, :n]), ref, rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("a", [0.0, 0.5])
@pytest.mark.parametrize("n", [1, 2])
def test_field_sampler_matches_first_layer_formula(n, a):
    """FieldSampler against u0 + (u1 - u0) (y/hy)^{1-a} in the first layer
    and multilinear interpolation elsewhere, built from scipy's interpolator."""
    from scipy.interpolate import RegularGridInterpolator

    def rgi(axes, values):
        return RegularGridInterpolator(axes, values, method="linear",
                                       bounds_error=False, fill_value=None)

    grid = sg.build_grid(n, 1.0, 1 / 8, 1 / 8, a)
    rng = np.random.default_rng(11 * n)
    U = rng.standard_normal(grid.node_shape)
    pts = _random_points(rng, grid, 500)
    pts[:100, -1] *= grid.hy / grid.R  # many points in the first layer
    ref = rgi(grid.xs + (grid.ys,), U)(pts)
    first = pts[:, -1] < grid.hy
    if a > 0.0:
        u0 = rgi(grid.xs, U[..., 0])(pts[first, :n])
        u1 = rgi(grid.xs, U[..., 1])(pts[first, :n])
        ref[first] = u0 + (u1 - u0) * (pts[first, -1] / grid.hy) ** (1.0 - a)
    assert first.sum() >= 100
    assert np.abs(sg.FieldSampler(grid, U).sample(pts) - ref).max() <= 1e-14


def _corner_loop_interpolate(axes, values, points, first_layer_power=None):
    """interpolate's corner loop before the product tree: every corner's
    weight multiplied up from 1.0 and its offset by ravel_multi_index.
    Reference for the product tree."""
    import itertools

    vals = np.asarray(values, dtype=float)
    shape = vals.shape[: len(axes)]
    pts = np.asarray(points, dtype=float)
    flat = pts.reshape(-1, len(axes))
    idx, ts = [], []
    for d, ax in enumerate(axes):
        i = np.clip(np.searchsorted(ax, flat[:, d], side="right") - 1, 0, len(ax) - 2)
        idx.append(i)
        ts.append((flat[:, d] - ax[i]) / (ax[i + 1] - ax[i]))
    if first_layer_power is not None:
        t = ts[-1]
        first = (idx[-1] == 0) & (t >= 0.0) & (t < 1.0)
        ts[-1] = np.where(first, np.clip(t, 0.0, 1.0) ** first_layer_power, t)
    table = vals.reshape((-1,) + vals.shape[len(axes):])
    base = np.ravel_multi_index(idx, shape)
    out = 0.0
    for corner in itertools.product((0, 1), repeat=len(axes)):
        w = 1.0
        for c, t in zip(corner, ts):
            w = w * (t if c else 1.0 - t)
        term = table[base + np.ravel_multi_index(corner, shape)]
        out = out + term * w.reshape(w.shape + (1,) * (table.ndim - 1))
    return out.reshape(pts.shape[:-1] + vals.shape[len(axes):])


@pytest.mark.parametrize("n", [1, 2])
def test_interpolate_product_tree_equals_the_corner_loop(n):
    grid = sg.build_grid(n, 1.0, 1 / 8, 1 / 6, 0.5)
    rng = np.random.default_rng(5 + n)
    axes = grid.xs + (grid.ys,)
    U = rng.standard_normal(grid.node_shape)
    T = rng.standard_normal(grid.node_shape + (n, n))
    pts = _random_points(rng, grid, 2000, pad=0.4)  # inside and outside the box
    pts[:300, -1] = rng.uniform(0.0, grid.ys[1], 300)  # the first layer
    for vals in (U, T):
        for p in (None, 0.5, 0.75):
            assert np.array_equal(interpolate(axes, vals, pts, first_layer_power=p),
                                  _corner_loop_interpolate(axes, vals, pts, p))
    thin = T[..., 0, :, :]
    for q in (pts[:, :n], pts[0, :n]):
        assert np.array_equal(interpolate(grid.xs, thin, q),
                              _corner_loop_interpolate(grid.xs, thin, q))


@pytest.mark.parametrize("n", [1, 2])
def test_node_block_holds_every_node_of_the_ball(n):
    grid = sg.build_grid(n, 1.0, 1 / 8, 1 / 8, 0.5)
    x0 = np.array([-0.375, 0.8125][:n])
    full = node_radii(grid, x0)
    for r in (0.2, 0.5):
        block, radii = grid.node_block(x0, r)
        assert np.array_equal(radii, full[block]) and radii.size < full.size
        assert np.count_nonzero(radii <= r) == np.count_nonzero(full <= r) > 0
    assert np.array_equal(grid.node_block(x0, np.inf)[1], full)
