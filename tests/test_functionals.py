"""Radial functionals: geometry fields, H/B/D/I, psi/sigma, frequency, Weiss,
identity checks, decay diagnostics."""

from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

import signorini as sg
from signorini.errors import InvalidConfigurationError
from signorini.functionals import integrate_psi_sigma, sphere_columns
from signorini.grid import halfsphere_weighted_area

from conftest import profile_boundary, solved_profile


def identity_grid(h=1 / 32, a=0.0, n=1):
    grid = sg.build_grid(n, 1.0, h, h, a)
    problem = sg.make_problem(grid)
    return grid, problem


# -- geometry fields ----------------------------------------------------------


def test_geometry_identity_closed_forms():
    grid, problem = identity_grid(1 / 10, 0.0)
    geo = sg.GeometryFields(grid, problem.coeff)
    X, Y = grid.node_mesh()
    off = np.hypot(X, Y) > 0
    nodes = np.stack([X, Y], axis=-1)[off]
    assert np.allclose(geo.mu_tilde_at(nodes), 1.0)
    # la_r = (n+a)/r * |y|^a at the node (0.6, 0.8), r = 1
    i = np.where(np.isclose(grid.xs[0], 0.6))[0][0]
    j = np.where(np.isclose(grid.ys, 0.8))[0][0]
    node = np.array([[X[i, j], Y[i, j]]])
    assert geo.mu_tilde_and_la_r_at(node)[1][0] == pytest.approx(1.0, rel=1e-12)


def test_geometry_perturbed_bounds():
    h = 1 / 32
    grid = sg.build_grid(1, 1.0, h, h, 0.0)
    coeff = sg.build_coefficients(grid, [[{"poly": [[1.0, [0]], [0.1, [1]]]}]])
    geo = sg.GeometryFields(grid, coeff)
    X, Y = grid.node_mesh()
    r = np.hypot(X, Y)
    off = r > 0.1
    nodes = np.stack([X, Y], axis=-1)[off]
    mu_tilde, la_r = geo.mu_tilde_and_la_r_at(nodes)
    assert np.array_equal(mu_tilde, geo.mu_tilde_at(nodes))
    # la_r * r / |y|^a stays within O(1) of (n + a)
    dev = np.abs(la_r * r[off] - 1.0)
    assert dev.max() <= 0.5
    assert np.all((mu_tilde >= coeff.lam - 1e-12) & (mu_tilde <= coeff.Lam + 1e-12))


@pytest.mark.parametrize("n", [1, 2])
def test_geometry_about_shifted_centre_closed_forms(n):
    # constant B normalised at x0 is the identity: mu~ = 1 and
    # la_r/|y|^a = (n + a)/rho on the sphere about the frame's origin
    a = 0.5
    grid = sg.build_grid(n, 1.0, 1 / 16, 1 / 16, a)
    Bc = np.array([[3.0]]) if n == 1 else np.array([[2.0, 0.5], [0.5, 1.0]])
    x0 = np.array([0.25, -0.125])[:n]
    coeff, S = sg.normalize_at(grid, sg.build_coefficients(grid, Bc.tolist()), x0)
    geo = sg.GeometryFields(grid, coeff)
    r = 0.4
    rule = sg.sphere_quadrature(grid, r, 32)
    rho = np.sqrt((rule.points**2).sum(axis=1))
    assert np.allclose(geo.mu_tilde_at(rule.points), 1.0, rtol=1e-13, atol=0.0)
    got_mu, got_la = geo.mu_tilde_and_la_r_at(rule.points)
    assert np.allclose(got_mu, 1.0, rtol=1e-13, atol=0.0)
    assert np.allclose(got_la, (n + a) / rho, rtol=1e-12, atol=0.0)
    # the height about x0 of U = 1 is twice the weighted half-sphere area
    H = sg.sphere_heights(np.ones(grid.node_shape), geo, [rule], frame=(x0, S))[0][0]
    assert H == pytest.approx(2.0 * halfsphere_weighted_area(n, r, a), rel=1e-6)


# -- height -------------------------------------------------------------------


def test_height_zero_field():
    grid, problem = identity_grid(1 / 16, 0.0)
    prof = sg.radial_profile(np.zeros(grid.node_shape), problem,
                             r_grid=np.linspace(0.3, 0.7, 5), n_angles=48)
    assert np.all(prof.H == 0.0)


def test_height_profile_value_and_scaling():
    grid, problem = identity_grid(1 / 96, 0.0)
    geo = sg.GeometryFields(grid, problem.coeff)
    U = profile_boundary(grid, 0.0)
    rules = [sg.sphere_quadrature(grid, r, 64) for r in (1.0, 0.3, 0.6)]
    H1, H03, H06 = sg.sphere_heights(U, geo, rules)[0]
    assert H1 == pytest.approx(np.pi, abs=1e-3)
    for r, Hr in ((0.3, H03), (0.6, H06)):
        assert Hr / H1 == pytest.approx(r**4, rel=0.01)


# -- D, B, I ------------------------------------------------------------------


def test_constant_field_energy_and_mass():
    grid, problem = identity_grid(1 / 32, 0.5)
    U = np.full(grid.node_shape, 2.0)
    prof = sg.radial_profile(U, problem, r_grid=np.linspace(0.3, 0.7, 5), nsub=8)
    assert np.all(prof.D == 0.0)
    from signorini.grid import ball_weighted_measure

    exact = 4.0 * 2.0 * ball_weighted_measure(1, 0.5, 0.5)
    assert prof.B[2] == pytest.approx(exact, rel=5e-3)


@pytest.mark.parametrize("a", [0.0, 0.5])
def test_ypower_dirichlet_closed_form(a):
    grid, problem = identity_grid(1 / 64, a)
    _, Y = grid.node_mesh()
    U = Y ** (1 - a)
    angular = quad(lambda t: np.sin(t) ** (-a), 0, np.pi, limit=400)[0]
    exact = 2 * (1 - a) ** 2 / (2 - a) * angular  # 2 (1-a)^2 int_{B_1^+} y^{-a}
    D, _, _ = sg.ball_integrals(U, problem, [1.0], nsub=8)[:, 0]
    assert D == pytest.approx(exact, rel=0.02)


def test_profile_energy_height_identity():
    grid, problem = identity_grid(1 / 96, 0.0)
    U = profile_boundary(grid, 0.0)
    prof = sg.radial_profile(U, problem, r_grid=np.linspace(0.4, 0.7, 5), nsub=8)
    assert np.allclose(prof.D, 1.5 * prof.H / prof.r, rtol=0.02, atol=0.0)


def test_total_energy_f_zero_and_surface_cross_check():
    grid, problem, form, sol, _ = solved_profile(0.0, 1.0 / 96)
    rg = np.linspace(0.3, 0.7, 5)
    prof = sg.radial_profile(sol.U, problem, r_grid=rg)
    assert np.array_equal(prof.I, prof.D)
    res = sg.surface_cross_check(sol.U, problem, prof)
    assert res["r"] == rg[2] and res["solid"] == prof.I[2]
    assert res["rel"] <= 0.02
    zero = sg.radial_profile(np.zeros(grid.node_shape), problem, r_grid=rg)
    assert np.all(zero.I == 0.0)


@pytest.mark.parametrize("n", [1, 2])
def test_profile_ball_columns_equal_one_radius_functionals(n):
    grid = sg.build_grid(n, 1.0, 1 / 12, 1 / 12, 0.5)
    X = np.stack(grid.node_mesh(), axis=-1)
    U = np.cos(X[..., 0]) * (1.0 - X[..., -1]) + 0.3 * X[..., 0] ** 2
    f = 0.5 + np.sin(X[..., 0])
    problem = sg.make_problem(grid, f=f)
    rg = np.geomspace(0.3, 0.9, 6)
    prof = sg.radial_profile(U, problem, r_grid=rg, Kprime=0.0, C_weiss=0.0)
    for i, r in enumerate(rg):
        D, B, F = sg.ball_integrals(U, problem, [r])[:, 0]
        assert prof.B[i] == B
        assert prof.D[i] == D
        assert prof.I[i] == D + F


def test_total_energy_includes_source_pairing():
    grid, problem0 = identity_grid(1 / 32, 0.0)
    problem = sg.make_problem(grid, f=1.0, boundary=0.0)
    X, Y = grid.node_mesh()
    U = 1.0 + 0.0 * X
    from signorini.grid import ball_weighted_measure

    exact = 2.0 * ball_weighted_measure(1, 0.5, 0.0)  # int U f over the full ball
    prof = sg.radial_profile(U, problem, r_grid=np.linspace(0.3, 0.7, 5), nsub=8)
    assert prof.I[2] == pytest.approx(exact, rel=5e-3)


# -- G ratio ------------------------------------------------------------------


def test_g_ratio_identity_exact():
    grid, problem = identity_grid(1 / 32, 0.25)
    X, Y = grid.node_mesh()
    U = np.cos(X) + Y**2  # arbitrary field
    prof = sg.radial_profile(U, problem, r_grid=np.linspace(0.3, 0.8, 5), n_angles=48)
    assert np.allclose(prof.G, (1 + 0.25) / prof.r, rtol=1e-10, atol=0.0)
    assert np.array_equal(prof.G, prof.L / prof.H)  # L is the stored numerator


def test_g_ratio_zero_height_branch():
    grid, problem = identity_grid(1 / 32, 0.25)
    prof = sg.radial_profile(np.zeros(grid.node_shape), problem,
                             r_grid=np.linspace(0.3, 0.7, 5), n_angles=48)
    assert np.allclose(prof.G, (1 + 0.25) / prof.r, rtol=1e-15, atol=0.0)


def test_g_ratio_perturbed_within_beta_band():
    h = 1 / 48
    grid = sg.build_grid(1, 1.0, h, h, 0.0)
    coeff = sg.build_coefficients(grid, [[{"poly": [[1.0, [0]], [0.1, [1]]]}]])
    problem = sg.make_problem(grid, coeff=coeff, boundary=profile_boundary(grid, 0.0))
    U = profile_boundary(grid, 0.0)
    rs = np.geomspace(0.15, 0.85, 12)
    G = sg.radial_profile(U, problem, r_grid=rs, Kprime=0.0, C_weiss=0.0).G
    beta = np.abs(G - 1.0 / rs).max()
    assert beta <= 1.0  # universal-constant band, O(1)
    assert np.all(G >= 1.0 / rs - beta - 1e-12)
    assert np.all(G <= 1.0 / rs + beta + 1e-12)


# -- psi / sigma ---------------------------------------------------------------


def test_psi_sigma_exact_for_default_g():
    r = np.geomspace(0.05, 1.0, 30)
    n, a = 1, 0.25
    ps = integrate_psi_sigma(r, (n + a) / r, n, a)
    assert np.allclose(ps.psi, r ** (n + a), rtol=1e-13)
    assert np.allclose(ps.sigma, r, rtol=1e-13)
    assert ps.alpha == pytest.approx(1.0, abs=1e-13)
    assert ps.psi[-1] == pytest.approx(1.0)  # psi(1) = 1
    assert ps.sigma[-1] == pytest.approx(1.0)  # sigma(1) = 1
    assert ps.beta_est <= 1e-12


def test_psi_sigma_envelopes_and_ratio_identity():
    rng = np.random.default_rng(1)
    r = np.geomspace(0.05, 1.0, 40)
    n, a = 1, 0.5
    G = (n + a) / r + 0.2 * np.sin(5 * r)  # bounded deviation
    ps = integrate_psi_sigma(r, G, n, a)
    b = ps.beta_est
    assert np.all(ps.psi <= np.exp(b * (1 - r)) * r ** (n + a) * (1 + 1e-10))
    assert np.all(ps.psi >= np.exp(-b * (1 - r)) * r ** (n + a) * (1 - 1e-10))
    assert np.allclose(ps.sigma, ps.psi / r ** (n - 1 + a), rtol=1e-14)
    # |sigma/r - alpha| <= beta e^beta r
    assert np.all(np.abs(ps.sigma / r - ps.alpha) <= b * np.exp(b) * r + 1e-12)


# -- frequency ----------------------------------------------------------------


@pytest.mark.parametrize("kappa,a", [(1.5, 0.0), (2.0, 0.0), (2.0, 0.5)])
def test_frequency_of_homogeneous_fields(kappa, a):
    grid = sg.build_grid(1, 1.0, 1 / 64, 1 / 64, a)
    problem = sg.make_problem(grid)
    if kappa == 1.5 and a == 0.0:
        U = profile_boundary(grid, a)
    else:
        X, Y = grid.node_mesh()
        # scaled so M(r) stays above the r^{3+delta} truncation on the
        # tested radii (the frequency itself is scale-invariant)
        U = 10.0 * (X**2 - Y**2 / (1 + a))
    prof = sg.radial_profile(U, problem, r_grid=np.geomspace(0.1, 0.9, 30))
    sel = (prof.r >= 0.12) & (prof.r <= 0.5)
    assert np.abs(prof.Ntilde[sel] - kappa).max() <= 0.02 * kappa
    assert np.abs(prof.Phi[sel] - kappa).max() <= 0.02 * kappa


@pytest.mark.parametrize("a,kappa,field", [(0.0, 2.0, "even_poly"), (0.5, 2.0, "even_poly"),
                                           (0.5, 0.5, "y_power")])
def test_frequency_homogeneous_n2(a, kappa, field):
    grid = sg.build_grid(2, 1.0, 1 / 16, 1 / 16, a)
    problem = sg.make_problem(grid)
    X1, X2, Y = grid.node_mesh()
    U = 10.0 * (X1**2 - Y**2 / (1 + a)) if field == "even_poly" else 10.0 * Y ** (1 - a)
    prof = sg.radial_profile(U, problem, r_grid=np.geomspace(0.15, 0.85, 20), nsub=6)
    sel = (prof.r >= 0.2) & (prof.r <= 0.6)
    assert np.abs(prof.Ntilde[sel] - kappa).max() <= 0.06
    assert np.abs(prof.Phi[sel] - kappa).max() <= 0.08 * max(kappa, 1.0)


def test_frequency_truncation_branch_zero_field():
    grid = sg.build_grid(1, 1.0, 1 / 32, 1 / 32, 0.0)
    problem = sg.make_problem(grid)
    prof = sg.radial_profile(np.zeros(grid.node_shape), problem,
                             r_grid=np.geomspace(0.1, 0.9, 20))
    delta = prof.delta
    # interior points (the ends use one-sided differences of log r)
    assert np.abs(prof.Ntilde[1:-1] - (3 + delta) / 2).max() <= 0.02 * (3 + delta) / 2
    assert not prof.mask_gamma.any()


def test_frequency_needs_enough_radii():
    with pytest.raises(InvalidConfigurationError):
        sphere_columns(np.array([0.1, 0.2, 0.3]), np.ones(3), np.ones(3), 1, 0.0)


def test_solved_profile_frequency_plateau(profile_a0):
    grid, problem, form, sol, _ = profile_a0
    prof = sg.radial_profile(sol.U, problem, r_grid=np.geomspace(0.08, 0.9, 40))
    sel = (prof.r >= 0.1) & (prof.r <= 0.5)
    assert np.abs(prof.Ntilde[sel] - 1.5).max() <= 0.05


def test_frequency_floor_at_contact_point(profile_a0):
    grid, problem, form, sol, _ = profile_a0
    nt = sg.classify(sol.U, problem, [0.0], r_min=8 * grid.hy).Ntilde
    assert nt >= 1.5 - 0.05


# -- Weiss ---------------------------------------------------------------------


def test_weiss_vanishes_on_critical_homogeneity():
    a = 0.0
    grid = sg.build_grid(1, 1.0, 1 / 96, 1 / 96, a)
    problem = sg.make_problem(grid)
    U = profile_boundary(grid, a)
    prof = sg.radial_profile(U, problem, r_grid=np.geomspace(0.1, 0.9, 25), nsub=8)
    scale = prof.sigma / prof.r ** (3 - a) * (3 - a) / (2 * prof.r) * prof.M
    assert np.abs(prof.W / scale).max() <= 0.02


def test_weiss_positive_increasing_above_critical():
    a = 0.0
    grid = sg.build_grid(1, 1.0, 1 / 64, 1 / 64, a)
    problem = sg.make_problem(grid)
    X, Y = grid.node_mesh()
    U = X**2 - Y**2  # kappa = 2 > 3/2
    prof = sg.radial_profile(U, problem, r_grid=np.geomspace(0.1, 0.9, 25))
    assert np.all(prof.W > 0)
    assert np.all(np.diff(prof.W) > 0)


def test_weiss_zero_field():
    grid = sg.build_grid(1, 1.0, 1 / 32, 1 / 32, 0.0)
    problem = sg.make_problem(grid)
    prof = sg.radial_profile(np.zeros(grid.node_shape), problem,
                             r_grid=np.geomspace(0.1, 0.9, 20))
    assert np.all(prof.W == 0.0)


def test_weiss_homogeneous_formula_match():
    # W = (k - (3-a)/2) H1 r^{2k-(3-a)} for the even quadratic
    a = 0.5
    grid = sg.build_grid(1, 1.0, 1 / 64, 1 / 64, a)
    problem = sg.make_problem(grid)
    X, Y = grid.node_mesh()
    U = X**2 - Y**2 / (1 + a)
    prof = sg.radial_profile(U, problem, r_grid=np.geomspace(0.2, 0.9, 20), nsub=8)
    geo = sg.GeometryFields(grid, problem.coeff)
    H1 = sg.sphere_heights(U, geo, [sg.sphere_quadrature(grid, 1.0, 64)])[0][0]
    cols = sg.homogeneous_functionals(2.0, 1, a, H1)
    expected = cols["W"](prof.r)
    assert np.abs(prof.W - expected).max() <= 0.03 * np.abs(expected).max()


def test_phi_equals_classical_almgren_ratio_identity_coefficients(profile_a0):
    # with A=I and f=0, psi = r^{n+a} and sigma = r hold exactly, so
    # Phi = sigma J / M reduces to the classical ratio r D / H
    grid, problem, form, sol, _ = profile_a0
    prof = sg.radial_profile(sol.U, problem, r_grid=np.geomspace(0.15, 0.8, 15))
    classical = prof.r * prof.D / prof.H
    assert np.abs(prof.Phi - classical).max() <= 0.02 * np.abs(classical).max()


def test_radial_profile_frequency_columns(profile_a0):
    grid, problem, form, sol, _ = profile_a0
    rg = np.geomspace(0.1, 0.6, 12)
    prof = sg.radial_profile(sol.U, problem, r_grid=rg, Kprime=0.0, C_weiss=0.0, delta=0.5)
    assert np.abs(prof.Ntilde[2:-2] - 1.5).max() <= 0.05
    assert prof.mask_gamma.all()


# -- monotonicity on solved fields ----------------------------------------------


def test_phi_monotone_on_mixed_solve():
    grid, problem, form, sol, _ = solved_profile(0.0, 1.0 / 96, mix=0.6)
    prof = sg.radial_profile(sol.U, problem, r_grid=np.geomspace(0.15, 0.9, 40), nsub=8)
    phi = prof.Phi[prof.mask_gamma]
    rng = phi.max() - phi.min()
    assert rng > 0.05  # genuinely increasing instance
    assert prof.phi_margin >= -0.01 * rng


def test_calibration_on_perturbed_coefficients():
    grid, problem, form, sol, _ = solved_profile(0.0, 1.0 / 64, b11_slope=0.1)
    prof = sg.radial_profile(sol.U, problem, r_grid=np.geomspace(0.1, 0.9, 40),
                             Kprime="calibrate", C_weiss="calibrate", nsub=8)
    assert np.isfinite(prof.Kprime) and prof.Kprime <= 1.0
    assert np.isfinite(prof.C_weiss) and prof.C_weiss <= 1.0
    assert prof.beta_est <= 0.5


# -- identity checks -------------------------------------------------------------


def test_identity_checks_profile(profile_a0):
    grid, problem, form, sol, _ = profile_a0
    rs = np.linspace(0.2, 0.8, 7)
    prof = sg.radial_profile(sol.U, problem, r_grid=rs)
    checks = sg.identity_checks(sol.U, problem, prof)
    assert np.array_equal(checks["r"], rs)
    assert checks["height_derivative_rel"].max() <= 0.02
    assert checks["rellich_rel"].max() <= 0.02
    assert np.isfinite(checks["trace_C1"]) and np.isfinite(checks["trace_C2"])


def test_identity_checks_ypower_rellich():
    a = 0.5
    grid = sg.build_grid(1, 1.0, 1 / 64, 1 / 64, a)
    problem = sg.make_problem(grid)
    _, Y = grid.node_mesh()
    U = Y ** (1 - a)
    prof = sg.radial_profile(U, problem, r_grid=np.linspace(0.3, 0.8, 5))
    checks = sg.identity_checks(U, problem, prof)
    assert checks["rellich_rel"].max() <= 0.02
    assert checks["height_derivative_rel"].max() <= 0.02


def test_identity_checks_variable_coefficients():
    # the height first-variation identity holds for any coefficients
    grid, problem, form, sol, _ = solved_profile(0.0, 1.0 / 96, b11_slope=0.1)
    prof = sg.radial_profile(sol.U, problem, r_grid=np.linspace(0.2, 0.8, 7),
                             Kprime=0.0, C_weiss=0.0)
    checks = sg.identity_checks(sol.U, problem, prof)
    assert checks["height_derivative_rel"].max() <= 0.02
    assert checks["rellich_rel"] is None  # exact variant requires A = I


def test_identity_checks_zero_field():
    grid = sg.build_grid(1, 1.0, 1 / 32, 1 / 32, 0.0)
    problem = sg.make_problem(grid)
    U = np.zeros(grid.node_shape)
    prof = sg.radial_profile(U, problem, r_grid=np.linspace(0.3, 0.7, 5))
    checks = sg.identity_checks(U, problem, prof)
    assert np.all(np.isfinite(checks["height_derivative_rel"]))


def test_identity_checks_radii_and_columns_come_from_the_profile():
    grid = sg.build_grid(1, 1.0, 1 / 32, 1 / 32, 0.0)
    problem = sg.make_problem(grid)
    X, Y = grid.node_mesh()
    U = X**2 - Y**2
    # the profile radii in [0.2 R, 0.8 R], or all of them when fewer than 3 lie there
    prof = sg.radial_profile(U, problem, r_grid=np.geomspace(0.1, 0.95, 12))
    inside = prof.r[(prof.r >= 0.2) & (prof.r <= 0.8)]
    assert np.array_equal(sg.identity_checks(U, problem, prof)["r"], inside)
    near = sg.radial_profile(U, problem, r_grid=np.geomspace(0.1, 0.3, 5))
    assert np.array_equal(sg.identity_checks(U, problem, near)["r"], near.r)
    # the H' identity is checked against the profile's own I and L columns
    checks = sg.identity_checks(U, problem, prof)
    doubled = sg.identity_checks(U, problem, replace(prof, I=2.0 * prof.I, L=2.0 * prof.L))
    assert np.all(doubled["height_derivative_rel"] > checks["height_derivative_rel"])


# -- oscillation / campanato decay -----------------------------------------------


def test_oscillation_constant_conjugate_variable():
    a = 0.25
    grid = sg.build_grid(1, 1.0, 1 / 32, 1 / 32, a)
    problem = sg.make_problem(grid)
    _, Y = grid.node_mesh()
    U = 3.0 * Y ** (1 - a)  # w = 3(1-a) constant
    out = sg.oscillation_decay(U, problem, [0.0], np.geomspace(0.1, 0.4, 6))
    assert out["slope"] == float("inf")


def test_oscillation_profile_slope(profile_a0):
    grid, problem, form, sol, _ = profile_a0
    out = sg.oscillation_decay(sol.U, problem, [0.0], np.geomspace(0.08, 0.5, 10))
    assert out["slope"] > 2.0  # strictly above n + 1 - a
    assert out["slope"] == pytest.approx(3.0, abs=0.3)


def test_oscillation_smooth_region_slope(profile_a0):
    grid, problem, form, sol, _ = profile_a0
    out = sg.oscillation_decay(sol.U, problem, [0.55], np.geomspace(0.1, 0.35, 8))
    assert out["slope"] >= 3.4  # ~ n + 1 - a + 2 for Lipschitz w


def test_campanato_exact_ansatz():
    a = 0.25
    grid = sg.build_grid(1, 1.0, 1 / 32, 1 / 32, a)
    _, Y = grid.node_mesh()
    V = 2.5 * Y ** (1 - a)
    out = sg.campanato_decay(V, grid, [0.0], np.geomspace(0.1, 0.5, 6))
    assert out["b"] == pytest.approx(2.5, abs=1e-10)
    assert out["residuals"].max() <= 1e-10
    assert out["slope"] == float("inf")


def test_campanato_even_field_contract_note():
    # even fields violate the vanishing-trace precondition: the fit
    # degrades but the operation still returns finite numbers
    a = 0.5
    grid = sg.build_grid(1, 1.0, 1 / 32, 1 / 32, a)
    _, Y = grid.node_mesh()
    out = sg.campanato_decay(1.0 + Y**2, grid, [0.0], np.geomspace(0.1, 0.5, 6))
    assert np.isfinite(out["slope"]) and np.isfinite(out["b"])
    assert out["slope"] < out["target"]


def test_campanato_manufactured_correction_slope():
    # V = y^{1-a} + y^{3-a}: the projection removes the first term and the
    # residual scales exactly like r^{n+1+a+2(3-a)} (homogeneity argument)
    a = 0.25
    grid = sg.build_grid(1, 1.0, 1 / 96, 1 / 96, a)
    _, Y = grid.node_mesh()
    V = Y ** (1 - a) + Y ** (3 - a)
    out = sg.campanato_decay(V, grid, [0.0], np.geomspace(0.15, 0.6, 8))
    expected = 1 + 1 + a + 2 * (3 - a)
    assert out["slope"] == pytest.approx(expected, abs=0.25)
    assert out["slope"] >= out["target"]


@pytest.mark.parametrize("name", ["Kprime", "C_weiss"])
def test_radial_profile_rejects_unknown_calibration_strings(name):
    grid = sg.build_grid(1, 1.0, 1 / 16, 1 / 16, 0.5)
    problem = sg.make_problem(grid)
    with pytest.raises(InvalidConfigurationError, match=name):
        sg.radial_profile(np.zeros(grid.node_shape), problem, **{name: "auto"})
