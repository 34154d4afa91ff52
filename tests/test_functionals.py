"""Radial functionals: the coefficients in a frame, H/B/D/I, psi/sigma,
frequency, Weiss, identity checks, decay diagnostics."""

import os
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

import signorini as sg
import signorini.functionals as functionals
from signorini.errors import InvalidConfigurationError
from signorini.functionals import frame_factors, integrate_psi_sigma, sphere_columns

from conftest import (
    TILTED_B, Lam_of, _bitwise_equal, _cpus, _no_child_process, ball_weighted_measure,
    graded_grid, halfsphere_weighted_area, homogeneous_functionals, normalized_field,
    profile_boundary, reference_heights, solved_profile,
)


def identity_grid(h=1 / 32, a=0.0, n=1):
    grid = sg.build_grid(n, 1.0, h, h, a)
    problem = sg.make_problem(grid)
    return grid, problem


# -- the coefficients in a frame -----------------------------------------------


def origin_factors(grid, coeff, points, la_r=False):
    """(mu~, la_r / |y|^a) of frame_factors in the origin's frame (0, I)."""
    return frame_factors(grid, coeff, points, points[..., :grid.n], np.eye(grid.n), la_r)[1:]


def test_geometry_identity_closed_forms():
    grid, problem = identity_grid(1 / 10, 0.0)
    X, Y = grid.node_mesh()
    off = np.hypot(X, Y) > 0
    nodes = np.stack([X, Y], axis=-1)[off]
    assert np.allclose(origin_factors(grid, problem.coeff, nodes)[0], 1.0)
    # la_r = (n+a)/r * |y|^a at the node (0.6, 0.8), r = 1
    i = np.where(np.isclose(grid.xs[0], 0.6))[0][0]
    j = np.where(np.isclose(grid.ys, 0.8))[0][0]
    node = np.array([[X[i, j], Y[i, j]]])
    la_r = origin_factors(grid, problem.coeff, node, la_r=True)[1]
    assert la_r[0] == pytest.approx(1.0, rel=1e-12)


def test_geometry_perturbed_bounds():
    h = 1 / 32
    grid = sg.build_grid(1, 1.0, h, h, 0.0)
    coeff = sg.build_coefficients(grid, [[{"poly": [[1.0, [0]], [0.1, [1]]]}]])
    X, Y = grid.node_mesh()
    r = np.hypot(X, Y)
    off = r > 0.1
    nodes = np.stack([X, Y], axis=-1)[off]
    mu_tilde, la_r = origin_factors(grid, coeff, nodes, la_r=True)
    assert np.array_equal(mu_tilde, origin_factors(grid, coeff, nodes)[0])
    # la_r * r / |y|^a stays within O(1) of (n + a)
    dev = np.abs(la_r * r[off] - 1.0)
    assert dev.max() <= 0.5
    assert np.all((mu_tilde >= coeff.lam - 1e-12) & (mu_tilde <= Lam_of(coeff) + 1e-12))


@pytest.mark.parametrize("n", [1, 2])
def test_geometry_about_shifted_centre_closed_forms(n):
    # constant B in the frame at x0 is the identity: mu~ = 1 and
    # la_r/|y|^a = (n + a)/rho on the sphere about the frame's origin
    a = 0.5
    grid = sg.build_grid(n, 1.0, 1 / 16, 1 / 16, a)
    Bc = np.array([[3.0]]) if n == 1 else np.array([[2.0, 0.5], [0.5, 1.0]])
    x0 = np.array([0.25, -0.125])[:n]
    coeff = sg.build_coefficients(grid, Bc.tolist())
    S = sg.normalize_at(grid, coeff, x0)
    r = 0.4
    rule = sg.sphere_quadrature(grid, r, 32)
    rho = np.sqrt((rule.points**2).sum(axis=1))
    X, S_inv = x0 + rule.points[:, :n] @ S.T, np.linalg.inv(S)
    assert np.allclose(frame_factors(grid, coeff, rule.points, X, S_inv)[1], 1.0,
                       rtol=1e-13, atol=0.0)
    _, got_mu, got_la = frame_factors(grid, coeff, rule.points, X, S_inv, la_r=True)
    assert np.allclose(got_mu, 1.0, rtol=1e-13, atol=0.0)
    assert np.allclose(got_la, (n + a) / rho, rtol=1e-12, atol=0.0)
    # the height about x0 of U = 1 is twice the weighted half-sphere area
    problem = sg.make_problem(grid, coeff=coeff)
    H = sg.sphere_heights(np.ones(grid.node_shape), problem, [rule], frame=(x0, S))[0][0]
    assert H == pytest.approx(2.0 * halfsphere_weighted_area(n, r, a), rel=1e-6)


# -- the fused sphere pass ---------------------------------------------------


def _pass_case(n, a, graded, h=1 / 16, desc=None):
    """(grid, coefficients, U): desc, by default the tilted B (n = 2) or a
    sloped b11 (n = 1), and a smooth field with a y^{1-a} part, on a
    uniform or graded grid."""
    grid = graded_grid(n, h, a) if graded else sg.build_grid(n, 1.0, h, h, a)
    if desc is None:
        desc = TILTED_B if n == 2 else [[{"poly": [[1.0, [0]], [0.1, [1]]]}]]
    coeff = sg.build_coefficients(grid, desc)
    nodes = np.stack(grid.node_mesh(), axis=-1)
    x, y = nodes[..., :n], nodes[..., n]
    U = np.cos(2.0 * x.sum(axis=-1)) * (1.0 + y) + (1.0 + x[..., 0]) * y ** (1.0 - a)
    return grid, coeff, U


def _chunked_rules(grid):
    """Rules that fill one pass with 64-angle rules and then alternate 48
    and 64 angles over more than two further passes, on radii in
    [0.15, 0.5]."""
    budget = functionals.PASS_SAMPLES
    rules = []
    while sum(rule.size for rule in rules) <= 3 * budget:
        i = len(rules)
        m = 64 if sum(rule.size for rule in rules) < budget or i % 2 else 48
        rules.append(sg.sphere_quadrature(grid, 0.15 + 0.35 * (0.618 * i % 1.0), m))
    return rules


@pytest.mark.parametrize("graded", [False, True], ids=["uniform", "graded"])
@pytest.mark.parametrize("framed", [False, True], ids=["origin", "frame"])
@pytest.mark.parametrize("a", [0.0, 0.5])
@pytest.mark.parametrize("n", [1, 2])
def test_fused_pass_matches_the_per_rule_reference(n, a, framed, graded, monkeypatch):
    # each rule's H and L within 1e-13 relative of the per-rule path
    # (conftest.reference_heights), and the same clamp flags; the frame at
    # x0 near the box edge clamps the samples of its larger spheres. In the
    # frame the reference is the per-point path: the coefficients tabulated
    # in the frame's coordinates (conftest.normalized_field), which agree
    # with the problem's own coefficients evaluated at the mapped points
    # for B linear in x, as here. One call over mixed rules spanning
    # several passes equals, to the bit, the rules passed one per call
    _cpus(monkeypatch, 1)
    grid, coeff, U = _pass_case(n, a, graded)
    frame, ref_coeff = None, coeff
    if framed:
        x0 = np.array([0.75, -0.25])[:n]
        frame = (x0, sg.normalize_at(grid, coeff, x0))
        ref_coeff = normalized_field(grid, coeff, x0)
    problem = sg.make_problem(grid, coeff=coeff)
    rules = [sg.sphere_quadrature(grid, r, m) for r in (0.15, 0.3, 0.5) for m in (48, 64)]
    chunked = _chunked_rules(grid)
    passes, call = [], functionals.FieldSampler.__call__

    def spy(self, chunk, *args):
        passes.append(chunk)
        return call(self, chunk, *args)

    monkeypatch.setattr(functionals.FieldSampler, "__call__", spy)
    for la_r in (False, True):
        H, L, clamped, processes = sg.sphere_heights(U, problem, rules, la_r=la_r, frame=frame)
        H_ref, L_ref, clamped_ref = reference_heights(U, grid, ref_coeff, rules, la_r, frame)
        assert processes == 1
        assert np.abs(H / H_ref - 1.0).max() <= 1e-13
        assert L is None if not la_r else np.abs(L / L_ref - 1.0).max() <= 1e-13
        assert np.array_equal(clamped, clamped_ref)
        assert clamped.any() and not clamped.all() if framed else not clamped.any()

        passes.clear()
        fused = sg.sphere_heights(U, problem, chunked, la_r=la_r, frame=frame)
        assert len(passes) >= 4 and [rule for chunk in passes for rule in chunk] == chunked
        assert all(len({id(rule.unit) for rule in chunk}) == 2 for chunk in passes[1:-1])
        single = [sg.sphere_heights(U, problem, [rule], la_r=la_r, frame=frame)
                  for rule in chunked]
        assert _bitwise_equal(fused.H, np.concatenate([out.H for out in single]))
        assert _bitwise_equal(fused.L, None if not la_r else
                              np.concatenate([out.L for out in single]))
        assert _bitwise_equal(fused.clamped, np.concatenate([out.clamped for out in single]))
        assert fused.clamped.any() and not fused.clamped.all() if framed \
            else not fused.clamped.any()


# B cubic in x: central differences of its table are O(h^2) off
CUBIC_B = {
    1: [[{"poly": [[1.0, [0]], [0.1, [1]], [0.2, [3]]]}]],
    2: [[{"poly": [[1.0, [0, 0]], [0.1, [0, 1]], [0.2, [3, 0]]]},
         {"poly": [[0.25, [0, 0]], [0.1, [1, 0]], [0.1, [1, 2]]]}],
        [{"poly": [[0.25, [0, 0]], [0.1, [1, 0]], [0.1, [1, 2]]]},
         {"poly": [[1.0, [0, 0]], [0.1, [0, 3]]]}]],
}


@pytest.mark.parametrize("n", [1, 2])
def test_frame_against_the_normalised_table_with_cubic_B(n):
    # the frame evaluates B itself at the mapped points and reads the
    # divergence of its table there; the per-point path tabulated the
    # frame's coefficients and differenced that table. H reads no
    # divergence and agrees to round-off. L differs by the two tables'
    # differencing errors, O(h^2) while the mapped spheres stay in the box
    # (measured 1.3e-6 at n = 1 and 3.5e-7 at n = 2 for h = 1/16, 3.5 and
    # 7 times less at h = 1/32); where they leave it, the table's linear
    # extrapolation stands in for B's own (measured up to 1.6e-3, in
    # clamped rules only)
    a = 0.5
    gaps = []
    for h in (1 / 16, 1 / 32):
        grid, coeff, U = _pass_case(n, a, False, h, CUBIC_B[n])
        problem = sg.make_problem(grid, coeff=coeff)
        rules = [sg.sphere_quadrature(grid, r, m) for r in (0.15, 0.3, 0.5) for m in (48, 64)]
        for x0, clamps in (([-0.125, 0.25], False), ([0.75, -0.25], True)):
            x0 = np.array(x0[:n])
            frame = (x0, sg.normalize_at(grid, coeff, x0))
            H, L, clamped, _ = sg.sphere_heights(U, problem, rules, la_r=True, frame=frame)
            H_ref, L_ref, clamped_ref = reference_heights(
                U, grid, normalized_field(grid, coeff, x0), rules, True, frame)
            assert np.array_equal(clamped, clamped_ref) and clamped.any() == clamps
            assert np.abs(H / H_ref - 1.0).max() <= 1e-13
            gap = np.abs(L / L_ref - 1.0)
            if clamps:
                assert gap[~clamped].max() <= 1e-5 and gap.max() <= 2e-3
            else:
                gaps.append(gap.max())
    assert gaps[0] <= 5e-6 and gaps[1] <= gaps[0] / 2.5


@pytest.fixture(scope="module")
def tilted_n2_reduction():
    # the benchmark's tilted B at h = 1/16 under an elliptic obstacle: its
    # 40-radius profile and its identity checks have enough sphere samples
    # to be dealt out
    a = 0.5
    grid = sg.build_grid(2, 1.0, 1 / 16, 1 / 16, a)
    X1, X2, _ = grid.node_mesh()
    problem = sg.make_problem(grid, coeff=sg.build_coefficients(grid, TILTED_B),
                              psi=0.3 - X1[..., 0] ** 2 - 2 * X2[..., 0] ** 2,
                              boundary=profile_boundary(grid, a))
    sol = sg.solve_active_set(sg.assemble_energy(grid, problem), problem, tol=1e-10)
    return sg.reduce_obstacle(sol.U, problem)


def test_dealt_profile_and_identities_equal_inline(tilted_n2_reduction, monkeypatch):
    U0, problem0 = tilted_n2_reduction
    runs = {}
    for k in (1, 3):
        _cpus(monkeypatch, k)
        prof = sg.radial_profile(U0, problem0)
        runs[k] = prof, sg.identity_checks(U0, problem0, prof)
        assert _no_child_process()
    (prof1, checks1), (prof3, checks3) = runs[1], runs[3]
    assert (prof1.processes, checks1["processes"]) == (1, 1)
    assert (prof3.processes, checks3["processes"]) == (3, 3)
    assert _bitwise_equal(replace(prof3, processes=1), prof1)
    assert _bitwise_equal({**checks3, "processes": 1}, checks1)


def test_a_dealt_task_deals_no_further(tilted_n2_reduction, monkeypatch):
    # sphere calls inside a dealt task, in a child or in this process's own
    # share, run inline; a call below DEAL_MIN_SAMPLES runs inline too
    U0, problem0 = tilted_n2_reduction
    grid = problem0.grid
    rules = [sg.sphere_quadrature(grid, r) for r in np.linspace(0.3, 0.8, 20)]
    assert sum(rule.size for rule in rules) >= functionals.DEAL_MIN_SAMPLES
    _cpus(monkeypatch, 3)
    assert sg.sphere_heights(U0, problem0, rules).processes == 3
    assert sg.sphere_heights(U0, problem0, rules[:10]).processes == 1
    inner, k = functionals.deal(lambda i: (os.getpid(), sg.sphere_heights(U0, problem0, rules)),
                                list(range(3)))
    assert k == 3 and len({pid for pid, _ in inner}) == 3
    assert [out.processes for _, out in inner] == [1, 1, 1]
    assert all(_bitwise_equal(out.H, inner[0][1].H) for _, out in inner)
    assert _no_child_process()


# -- height -------------------------------------------------------------------


def test_height_zero_field():
    grid, problem = identity_grid(1 / 16, 0.0)
    prof = sg.radial_profile(np.zeros(grid.node_shape), problem,
                             r_grid=np.linspace(0.3, 0.7, 5), n_angles=48)
    assert np.all(prof.H == 0.0)


def test_height_profile_value_and_scaling():
    grid, problem = identity_grid(1 / 96, 0.0)
    U = profile_boundary(grid, 0.0)
    rules = [sg.sphere_quadrature(grid, r, 64) for r in (1.0, 0.3, 0.6)]
    H1, H03, H06 = sg.sphere_heights(U, problem, rules)[0]
    assert H1 == pytest.approx(np.pi, abs=1e-3)
    for r, Hr in ((0.3, H03), (0.6, H06)):
        assert Hr / H1 == pytest.approx(r**4, rel=0.01)


# -- D, B, I ------------------------------------------------------------------


def test_constant_field_energy_and_mass():
    grid, problem = identity_grid(1 / 32, 0.5)
    U = np.full(grid.node_shape, 2.0)
    prof = sg.radial_profile(U, problem, r_grid=np.linspace(0.3, 0.7, 5), nsub=8)
    assert np.all(prof.D == 0.0)
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


def test_surface_cross_check_with_tilted_coefficients():
    # the tilted-B workload's seed-0 problem at h = 1/16: the surface terms
    # evaluate B and mu~ in the origin's frame (measured 7.2e-3, and 4.4e-3
    # at h = 1/32)
    a = 0.5
    grid = sg.build_grid(2, 1.0, 1 / 16, 1 / 16, a)
    ref = sg.exact_solution("signorini_profile", a)
    problem = sg.make_problem(grid, coeff=sg.build_coefficients(grid, TILTED_B),
                              boundary=ref(np.stack(grid.node_mesh(), axis=-1)))
    sol = sg.solve_active_set(sg.assemble_energy(grid, problem), problem, tol=1e-10)
    prof = sg.radial_profile(sol.U, problem, r_grid=sg.default_r_grid(grid))
    assert sg.surface_cross_check(sol.U, problem, prof)["rel"] <= 1e-2


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
    H1 = sg.sphere_heights(U, problem, [sg.sphere_quadrature(grid, 1.0, 64)])[0][0]
    cols = homogeneous_functionals(2.0, 1, a, H1)
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
