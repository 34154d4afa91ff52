"""Contact masks, classification, decay fits, blow-ups, graph fit, and the
report's forked workers."""

import contextlib
import multiprocessing
import os
import pathlib
import signal
import subprocess
import sys

import numpy as np
import pytest

import signorini as sg
from signorini.errors import InsufficientDataError, OutOfDomainError, SignoriniError
from signorini.freeboundary import gamma_points, local_columns
from signorini.grid import interpolate
from signorini.solver import near_optimal_omega

from conftest import TILTED_B, profile_boundary, solved_profile


def test_contact_masks_inactive():
    grid = sg.build_grid(1, 1.0, 1 / 32, 1 / 32, 0.5)
    _, Y = grid.node_mesh()
    problem = sg.make_problem(grid, psi=-1.0, boundary=Y**0.5)
    form = sg.assemble_energy(grid, problem)
    sol = sg.solve_psor(form, problem, omega=near_optimal_omega(grid))
    masks = sg.contact_set(sol, problem)
    assert not masks["contact"].any()
    assert not masks["gamma"].any()


def test_contact_masks_fully_active():
    grid = sg.build_grid(1, 1.0, 1 / 32, 1 / 32, 0.0)
    problem = sg.make_problem(grid, psi=1.0, boundary=0.0)
    form = sg.assemble_energy(grid, problem)
    sol = sg.solve_psor(form, problem, omega=near_optimal_omega(grid))
    masks = sg.contact_set(sol, problem)
    inner = np.abs(grid.xs[0]) < 1.0
    assert masks["contact"][inner].all()
    # no free boundary inside the box (only at the Dirichlet frame)
    assert not masks["gamma"][np.abs(grid.xs[0]) < 1.0 - 2 * grid.hx].any()


def test_profile_contact_and_gamma_location(profile_a0):
    grid, problem, form, sol, _ = profile_a0
    masks = sg.contact_set(sol, problem)
    xs = grid.xs[0]
    pts = gamma_points(grid, masks["gamma"])
    inner = np.abs(pts[:, 0]) < 0.9
    assert np.abs(pts[inner, 0]).max() <= 2 * grid.hx
    # Lambda ~ {x <= 0}
    assert masks["contact"][(xs < -2 * grid.hx) & (xs > -0.9)].all()
    assert not masks["contact"][(xs > 2 * grid.hx) & (xs < 0.9)].any()


def test_gamma_is_the_contact_boundary(profile_a0):
    grid, problem, form, sol, _ = profile_a0
    masks = sg.contact_set(sol, problem)
    contact, gamma = masks["contact"], masks["gamma"]
    assert gamma.any()
    assert np.all(contact[gamma])
    open_left = np.append(False, ~contact[:-1])
    open_right = np.append(~contact[1:], False)
    assert np.all((open_left | open_right)[gamma])


def test_classify_threshold_branches():
    a, delta = 0.0, 0.5
    assert sg.classify_from_frequency(1.5, a, delta, tau_gap=0.1) == "Regular"
    assert sg.classify_from_frequency(2.0, a, delta, tau_gap=0.1) == "Degenerate"
    assert sg.classify_from_frequency(1.68, a, delta, tau_gap=0.05) == "Unresolved"


def test_classify_regular_point_on_profile(profile_a0):
    grid, problem, form, sol, _ = profile_a0
    cls = sg.classify(sol.U, problem, [0.0])
    assert cls.label == "Regular"
    assert cls.Ntilde == pytest.approx(1.5, abs=0.05)


def test_classify_degenerate_even_poly():
    a = 0.0
    grid = sg.build_grid(1, 1.0, 1 / 64, 1 / 64, a)
    problem = sg.make_problem(grid)
    X, Y = grid.node_mesh()
    U = 10.0 * (X**2 - Y**2)
    cls = sg.classify(U, problem, [0.0])
    assert cls.label == "Degenerate"
    assert cls.Ntilde == pytest.approx(2.0, abs=0.05)


def test_classification_scale_stability(profile_a0):
    grid, problem, form, sol, _ = profile_a0
    r1 = 16 * grid.hy
    n1 = sg.classify(sol.U, problem, [0.0], r_min=r1).Ntilde
    n2 = sg.classify(sol.U, problem, [0.0], r_min=r1 / 2).Ntilde
    assert abs(n2 - n1) < sg.freeboundary.default_tau_gap(0.0, 0.5) / 2


def _resampled(U, problem, x0):
    """(coefficients, U) in the coordinates normalised at x0: U resampled
    onto the grid there, mapped nodes clamped to the box."""
    grid = problem.grid
    coeff, S = sg.normalize_at(grid, problem.coeff, x0)
    thin = np.stack(np.meshgrid(*grid.xs, indexing="ij"), axis=-1)
    return coeff, interpolate(grid.xs, U, np.clip(x0 + thin @ S.T, -grid.R, grid.R))


def _resampled_frequency(U, problem, x0):
    """Ntilde(8 h) by the resample-then-profile path: U resampled in the
    frame of x0, then radial_profile on local_columns' ladder. Reference for
    the local evaluation; K' = 0 Ntilde reads only the sphere sums."""
    grid = problem.grid
    coeff, resampled = _resampled(U, problem, x0)
    cols, k, _, _ = local_columns(U, problem, x0, 8 * max(grid.hx, grid.hy))
    prof = sg.radial_profile(resampled, sg.make_problem(grid, coeff=coeff), r_grid=cols.r,
                             Kprime=0.0, C_weiss=0.0)
    return cols.Ntilde[k], prof.Ntilde[k]


def test_local_frequency_matches_resampling_at_a_node(profile_a05):
    grid, problem, form, sol, _ = profile_a05
    local, reference = _resampled_frequency(sol.U, problem, np.array([-grid.hx]))
    assert local == pytest.approx(reference, rel=1e-12, abs=0.0)


def test_local_frequency_matches_resampling_tilted():
    a = 0.5
    grid = sg.build_grid(2, 1.0, 1 / 16, 1 / 16, a)
    problem = sg.make_problem(grid, coeff=sg.build_coefficients(grid, TILTED_B))
    U = sg.exact_solution("signorini_profile", a)(np.stack(grid.node_mesh(), axis=-1))
    for x0 in ([-1 / 16, 0.0], [-1 / 16, 0.25], [0.0, -0.5]):
        local, reference = _resampled_frequency(U, problem, np.array(x0))
        assert abs(local - reference) <= 1e-3


def test_local_ladder_is_geometric_through_r(profile_a0):
    grid, problem, form, sol, _ = profile_a0
    for r in (8 * grid.hx, 0.3):
        cols, k, _, _ = local_columns(sol.U, problem, [0.0], r)
        assert cols.r[k] == r
        steps = np.diff(np.log(cols.r))
        assert np.allclose(steps, steps[0], rtol=1e-9, atol=0.0)
        # the ladder starts at r/q, the lowest radius Ntilde(r) reads
        assert k == 1 and len(cols.r) > 5
    # above 0.9 R, r is kept past the top of the ladder, over the five
    # radii sphere_columns needs
    cols, k, _, _ = local_columns(sol.U, problem, [0.0], 0.95)
    assert k == len(cols.r) - 1 == 4 and cols.r[k] == 0.95
    assert cols.r[k - 1] <= 0.9 * grid.R


def _full_ladder_columns(U, problem, x0, r):
    """(columns, k, sampler) of local_columns on its whole ladder [lo, hi],
    before the ladder started at r/q. Reference for the shortened ladder."""
    grid = problem.grid
    floor = 2.0 * max(grid.hx, grid.hy)
    lo = max(r / 1.6, floor * 1.02)
    hi = min(5.0 * r, 0.9 * grid.R)
    q = (hi / lo) ** (1.0 / 12)
    j = np.arange(np.ceil(np.log(lo / r) / np.log(q)), np.floor(np.log(hi / r) / np.log(q)) + 1)
    j = np.union1d(j, 0.0)
    rg = r * q**j
    coeff, S = sg.normalize_at(grid, problem.coeff, x0)
    rules = [sg.sphere_quadrature(grid, ri) for ri in rg]
    H, L = sg.sphere_heights(U, sg.GeometryFields(grid, coeff), rules, la_r=True, frame=(x0, S))
    cols = sg.sphere_columns(rg, H, L, grid.n, grid.a)
    return cols, int(np.searchsorted(j, 0.0)), sg.FieldSampler(grid, U, (x0, S))


@pytest.mark.parametrize("n", [1, 2])
def test_short_ladder_reads_what_the_full_ladder_reads(n):
    # Ntilde(r), M(r) and the blow-up read no radius below r/q: bitwise
    # equal to the whole ladder's, at 0.95 above 0.9 R too (five radii)
    a = 0.5
    grid = sg.build_grid(n, 1.0, 1 / 16, 1 / 16, a)
    coeff = sg.build_coefficients(grid, TILTED_B if n == 2 else [[{"poly": [[1.0, [0]], [0.1, [1]]]}]])
    problem = sg.make_problem(grid, coeff=coeff)
    U = sg.exact_solution("signorini_profile", a)(np.stack(grid.node_mesh(), axis=-1))
    nodes = np.stack(grid.node_mesh(), axis=-1).reshape(-1, n + 1)
    for x0 in ([-1 / 16, 0.25][:n], [0.0, -0.5][:n]):
        x0 = np.array(x0)
        for r in (0.2, 0.5, 0.95):
            cols, k, _, _ = local_columns(U, problem, x0, r)
            ref, kr, sampler = _full_ladder_columns(U, problem, x0, r)
            assert np.array_equal(cols.r, ref.r[kr - 1:] if len(ref.r) - kr >= 4 else ref.r[-5:])
            assert cols.r[k] == ref.r[kr] == r
            assert cols.Ntilde[k] == ref.Ntilde[kr] and cols.M[k] == ref.M[kr]
            expected = (sampler(nodes * r) / np.sqrt(ref.M[kr])).reshape(grid.node_shape)
            assert np.array_equal(sg.blowup(U, problem, x0, r), expected)


def test_classify_reports_the_box_clamp():
    # B = 2.25 maps the sphere of radius r about x0 to one of radius 1.5 r;
    # the ladder through r_min = 0.125 reaches 0.625
    grid = sg.build_grid(1, 1.0, 1 / 32, 1 / 32, 0.0)
    problem = sg.make_problem(grid, coeff=sg.build_coefficients(grid, [[2.25]]))
    U = profile_boundary(grid, 0.0)
    assert sg.classify(U, problem, [0.0], r_min=0.125).clamp_r is None
    cls = sg.classify(U, problem, [0.25], r_min=0.125)
    cols, _, _, _ = local_columns(U, problem, [0.25], 0.125)
    reach = [0.25 + 1.5 * np.abs(sg.sphere_quadrature(grid, r).points[:, 0]).max()
             for r in cols.r]
    first = next(i for i, x in enumerate(reach) if x > 1.0)
    assert first > 0 and cls.clamp_r == cols.r[first]


def test_decay_fit_regular_slopes(profile_a0):
    grid, problem, form, sol, _ = profile_a0
    fit = sg.decay_fit(sol.U, problem, [0.0])
    assert fit["slope"] == pytest.approx(1.5, abs=0.05)
    assert fit["H_slope"] == pytest.approx(4.0, abs=0.1)


def _shifted_heights(U, problem, x0, r_grid):
    """decay_fit's heights by a plain shift: the rules moved to (x0, 0) and
    mu~ about that centre with the raw coefficients. Reference for the
    normalised frame at identity B, where mu~ = 1 on both paths."""
    grid = problem.grid
    sampler = sg.FieldSampler(grid, U)
    heights = []
    for r in r_grid:
        rule = sg.sphere_quadrature(grid, r, n_angles=48)
        pts = rule.points + np.append(x0, 0.0)
        Z = rule.points
        z = Z[:, :grid.n]
        B = problem.coeff.eval_B(pts[:, :grid.n])
        azz = np.einsum("kij,ki,kj->k", B, z, z) + Z[:, grid.n] ** 2
        mu_tilde = azz / (Z**2).sum(axis=1)
        heights.append(2.0 * rule.integrate(sampler(pts) ** 2 * mu_tilde))
    return np.array(heights)


def test_decay_fit_heights_at_identity_equal_the_shift(profile_a05):
    grid, problem, form, sol, _ = profile_a05
    x0 = np.array([-grid.hx])
    fit = sg.decay_fit(sol.U, problem, x0)
    assert np.array_equal(fit["H"], _shifted_heights(sol.U, problem, x0, fit["r"]))


def test_decay_fit_heights_tilted_match_resampling():
    # the heights in the frame normalised at x0 are those of U resampled
    # onto the grid in that frame, about the origin (measured: at most
    # 1.5e-3 relative, the resampling's interpolation error)
    a = 0.5
    grid = sg.build_grid(2, 1.0, 1 / 16, 1 / 16, a)
    problem = sg.make_problem(grid, coeff=sg.build_coefficients(grid, TILTED_B))
    U = sg.exact_solution("signorini_profile", a)(np.stack(grid.node_mesh(), axis=-1))
    for x0 in ([-1 / 16, 0.0], [-1 / 16, 0.25], [0.0, -0.5]):
        fit = sg.decay_fit(U, problem, np.array(x0))
        coeff, resampled = _resampled(U, problem, np.array(x0))
        rules = [sg.sphere_quadrature(grid, r, n_angles=48) for r in fit["r"]]
        reference = sg.sphere_heights(resampled, sg.GeometryFields(grid, coeff), rules)[0]
        assert np.allclose(fit["H"], reference, rtol=5e-3, atol=0.0)


def test_decay_fit_sups_on_the_block_equal_the_full_grid():
    # the sups read only the node block of the largest ball
    a = 0.5
    grid = sg.build_grid(2, 1.0, 1 / 16, 1 / 16, a)
    problem = sg.make_problem(grid, coeff=sg.build_coefficients(grid, TILTED_B))
    U = sg.exact_solution("signorini_profile", a)(np.stack(grid.node_mesh(), axis=-1))
    for x0 in ([-1 / 16, 0.0], [-1 / 16, 0.5], [0.0, -0.5]):
        fit = sg.decay_fit(U, problem, np.array(x0))
        radii = grid.node_radii(x0)
        sups = [np.abs(U)[radii <= r].max() for r in fit["r"]]
        assert np.array_equal(fit["sup"], sups)


def test_decay_fit_identically_zero():
    grid = sg.build_grid(1, 1.0, 1 / 32, 1 / 32, 0.0)
    problem = sg.make_problem(grid)
    fit = sg.decay_fit(np.zeros(grid.node_shape), problem, [0.0])
    assert fit["slope"] == float("inf")


def test_blowup_self_similarity_and_height():
    a = 0.0
    grid = sg.build_grid(1, 1.0, 1 / 64, 1 / 64, a)
    problem = sg.make_problem(grid)
    U = profile_boundary(grid, a)
    bl1 = sg.blowup(U, problem, [0.0], 0.5)
    bl2 = sg.blowup(U, problem, [0.0], 0.25)
    inner = grid.node_radii() <= 0.9
    scale = np.abs(bl1[inner]).max()
    assert np.abs(bl1[inner] - bl2[inner]).max() <= 0.02 * scale
    geo = sg.GeometryFields(grid, problem.coeff)
    rule = sg.sphere_quadrature(grid, 1.0, 64)
    assert sg.sphere_heights(bl1, geo, [rule])[0][0] == pytest.approx(1.0, rel=0.02)


def test_blowup_height_beyond_the_classification_ladder():
    # r = 0.95 lies above 0.9 R, the top of the ladder's geometric part
    a = 0.0
    grid = sg.build_grid(1, 1.0, 1 / 64, 1 / 64, a)
    problem = sg.make_problem(grid)
    bl = sg.blowup(profile_boundary(grid, a), problem, [0.0], 0.95)
    geo = sg.GeometryFields(grid, problem.coeff)
    rule = sg.sphere_quadrature(grid, 1.0, 64)
    assert sg.sphere_heights(bl, geo, [rule])[0][0] == pytest.approx(1.0, rel=0.02)


def test_blowup_ladder_converges_to_profile():
    # boundary data mixing in a higher mode: the extra content decays
    # linearly under rescaling, so blow-ups approach the normalized profile
    grid, problem, form, sol, _ = solved_profile(0.0, 1.0 / 96, mix=0.6)
    inner = grid.node_radii() <= 0.8
    U0 = profile_boundary(grid, 0.0)
    geo = sg.GeometryFields(grid, problem.coeff)
    H1 = sg.sphere_heights(U0, geo, [sg.sphere_quadrature(grid, 1.0, 64)])[0][0]
    target = U0 / np.sqrt(H1)
    dists = []
    for r in (0.6, 0.4, 0.25, 0.15):
        bl = sg.blowup(sol.U, problem, [0.0], r)
        dists.append(np.abs(bl[inner] - target[inner]).max())
    assert np.all(np.diff(dists) < 0)


def test_graph_fit_straight_line():
    rng = np.random.default_rng(0)
    s = np.linspace(-0.4, 0.4, 9)
    pts = np.stack([s, np.full_like(s, 0.2)], axis=-1)
    out = sg.graph_fit(pts)
    assert np.abs(out["gprime"]).max() <= 1e-12
    assert out["gamma_est"] >= 0.9 - 1e-12


def test_graph_fit_circle_arc():
    th = np.linspace(-0.5, 0.5, 11)
    pts = np.stack([0.5 * np.sin(th), 0.5 * np.cos(th)], axis=-1)
    out = sg.graph_fit(pts)
    # g' of a circle arc is Lipschitz: quotient bounded for gamma up to ~1
    assert out["gamma_est"] >= 0.5


def test_graph_fit_insufficient_points():
    with pytest.raises(InsufficientDataError):
        sg.graph_fit(np.zeros((3, 2)))


def test_report_on_profile(profile_a0):
    grid, problem, form, sol, _ = profile_a0
    rep = sg.free_boundary_report(sol, problem)
    assert rep.points, "expected at least one free boundary point"
    origin = [p for p in rep.points if abs(p["x0"][0]) <= 2 * grid.hx]
    assert origin and origin[0]["class"] == "Regular"
    assert origin[0]["definitions_agree"]


def test_report_empty_for_inactive():
    grid = sg.build_grid(1, 1.0, 1 / 32, 1 / 32, 0.0)
    _, Y = grid.node_mesh()
    problem = sg.make_problem(grid, psi=-1.0, boundary=1.0 + Y)
    form = sg.assemble_energy(grid, problem)
    sol = sg.solve_psor(form, problem, omega=near_optimal_omega(grid))
    rep = sg.free_boundary_report(sol, problem)
    assert rep.points == []
    assert not rep.contact_mask.any()


def test_reduce_obstacle_identity_when_zero(profile_a0):
    grid, problem, form, sol, _ = profile_a0
    U0, problem0 = sg.reduce_obstacle(sol.U, problem)
    assert U0 is sol.U and problem0 is problem


def test_reduce_obstacle_source_term():
    # psi = c - |x|^2 with B = I: the reduction carries f = +4 (n=2)
    grid = sg.build_grid(2, 1.0, 1 / 8, 1 / 8, 0.0)
    X1, X2, Y = grid.node_mesh()
    psi = 0.4 - (X1[..., 0] ** 2 + X2[..., 0] ** 2)
    problem = sg.make_problem(grid, psi=psi, boundary=0.0)
    U = np.zeros(grid.node_shape)
    U0, problem0 = sg.reduce_obstacle(U, problem)
    inner = (np.abs(X1) <= 0.75) & (np.abs(X2) <= 0.75)  # clear of one-sided edges
    assert np.allclose(problem0.f[inner], 4.0)
    assert np.all(problem0.psi == 0.0)
    assert np.allclose(U0, -psi[..., None] * np.ones_like(Y))


# -- n = 2 end-to-end ---------------------------------------------------------


@pytest.fixture(scope="module")
def n2_line_solve():
    # profile extended constant in x2: straight-line free boundary {x1 = 0}
    a = 0.0
    grid = sg.build_grid(2, 1.0, 1 / 16, 1 / 16, a)
    pts = np.stack(grid.node_mesh(), axis=-1)
    ref = sg.exact_solution("signorini_profile", a)
    g = ref(pts)  # depends on (x1, y) only
    problem = sg.make_problem(grid, psi=0.0, boundary=g)
    form = sg.assemble_energy(grid, problem)
    sol = sg.solve_psor(form, problem, omega=near_optimal_omega(grid), tol=1e-9)
    return grid, problem, form, sol


def test_n2_line_contact_set(n2_line_solve):
    grid, problem, form, sol = n2_line_solve
    masks = sg.contact_set(sol, problem)
    pts = gamma_points(grid, masks["gamma"])
    inner = np.all(np.abs(pts) < 0.9, axis=1)
    assert np.abs(pts[inner, 0]).max() <= 2 * grid.hx


def _eligible_gamma(sol, problem):
    """The Gamma nodes the report classifies: |x| <= R/2 in every thin axis."""
    grid = problem.grid
    pts = gamma_points(grid, sg.contact_set(sol, problem)["gamma"])
    return pts[np.all(np.abs(pts) <= 0.5 * grid.R, axis=-1)]


def test_report_classifies_every_eligible_gamma_node(n2_line_solve):
    grid, problem, form, sol = n2_line_solve
    eligible = _eligible_gamma(sol, problem)
    assert len(eligible) == 17
    rep = sg.free_boundary_report(sol, problem)
    assert [p["x0"] for p in rep.points] == eligible.tolist()


def _cpus(monkeypatch, k):
    """Make this process's affinity mask hold k CPUs, whatever the machine has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)), raising=False)


@pytest.fixture
def one_cpu(monkeypatch):
    """The report's inline path: the counters below do not see forked workers."""
    _cpus(monkeypatch, 1)


def test_report_normalizes_once_per_point(n2_line_solve, monkeypatch, one_cpu):
    # one frame per point serves its classification and its decay fit
    grid, problem, form, sol = n2_line_solve
    normalize_at = sg.freeboundary.normalize_at
    calls = []

    def counting(grid, coeff, x0):
        calls.append(np.atleast_1d(x0).tolist())
        return normalize_at(grid, coeff, x0)

    monkeypatch.setattr(sg.freeboundary, "normalize_at", counting)
    rep = sg.free_boundary_report(sol, problem)
    assert calls == [p["x0"] for p in rep.points]
    assert len(calls) == 17


def test_n2_line_graph_fit(n2_line_solve):
    grid, problem, form, sol = n2_line_solve
    rep = sg.free_boundary_report(sol, problem)
    regs = [p for p in rep.points if p.get("class") == "Regular"]
    assert len(regs) >= 5
    assert rep.graph is not None
    # straight line: fitted graph is flat
    assert np.abs(rep.graph["g"]).max() <= 2 * grid.hx
    assert rep.graph["gamma_est"] >= 0.8


@pytest.fixture(scope="module")
def n2_circle_solve():
    # radially symmetric obstacle: the contact set is a disc and the free
    # boundary a circle
    a = 0.0
    grid = sg.build_grid(2, 1.0, 1 / 20, 1 / 20, a)
    X1, X2, Y = grid.node_mesh()
    psi = 0.4 - (X1[..., 0] ** 2 + X2[..., 0] ** 2)
    problem = sg.make_problem(grid, psi=psi, boundary=0.0)
    form = sg.assemble_energy(grid, problem)
    sol = sg.solve_psor(form, problem, omega=near_optimal_omega(grid), tol=1e-9)
    return grid, problem, form, sol


def test_n2_circle_gamma_is_round(n2_circle_solve):
    grid, problem, form, sol = n2_circle_solve
    masks = sg.contact_set(sol, problem)
    pts = gamma_points(grid, masks["gamma"])
    rr = np.linalg.norm(pts, axis=1)
    assert len(pts) >= 20
    assert rr.max() - rr.min() <= 3 * grid.hx  # circular up to grid resolution


def test_n2_circle_points_classify_regular(n2_circle_solve):
    grid, problem, form, sol = n2_circle_solve
    masks = sg.contact_set(sol, problem)
    pts = gamma_points(grid, masks["gamma"])
    for x0 in pts[:4]:
        cls = sg.classify(sol.U, problem, x0, r_min=6 * grid.hy)
        assert cls.label == "Regular"
        assert cls.Ntilde == pytest.approx(1.5, abs=0.1)


def test_report_reduces_the_obstacle_once(n2_circle_solve, monkeypatch, one_cpu):
    # psi != 0: one reduced problem serves every classified point
    grid, problem, form, sol = n2_circle_solve
    reduce = sg.freeboundary.reduce_obstacle
    built = []

    def counting(U, problem):
        out = reduce(U, problem)
        if out[1] is not problem:
            built.append(out[1])
        return out

    monkeypatch.setattr(sg.freeboundary, "reduce_obstacle", counting)
    rep = sg.free_boundary_report(sol, problem)
    assert len(rep.points) == len(_eligible_gamma(sol, problem))
    assert len(built) == 1


def test_n2_circle_arc_graph_fit(n2_circle_solve):
    grid, problem, form, sol = n2_circle_solve
    masks = sg.contact_set(sol, problem)
    pts = gamma_points(grid, masks["gamma"])
    arc = pts[pts[:, 1] > 0.15]  # locally a graph over the rotated tangent
    out = sg.graph_fit(arc)
    assert np.isfinite(out["gprime"]).all()
    assert out["gamma_est"] >= 0.5


# -- the report's points on several processes --------------------------------


@pytest.fixture(scope="module")
def n2_tilted_obstacle_solve():
    # the benchmark's tilted B under an elliptic obstacle at h = 1/16: 28
    # points, 6 of them Unresolved, and a graph fit
    a = 0.5
    grid = sg.build_grid(2, 1.0, 1 / 16, 1 / 16, a)
    X1, X2, _ = grid.node_mesh()
    psi = 0.3 - X1[..., 0] ** 2 - 2 * X2[..., 0] ** 2
    problem = sg.make_problem(grid, coeff=sg.build_coefficients(grid, TILTED_B), psi=psi,
                              boundary=profile_boundary(grid, a))
    sol = sg.solve_psor(sg.assemble_energy(grid, problem), problem, tol=1e-10)
    return problem, sol


def _bitwise_equal(a, b) -> bool:
    """Equal structure and types, with floats and arrays equal to the bit."""
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return list(a) == list(b) and all(_bitwise_equal(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(_bitwise_equal, a, b))
    if isinstance(a, (float, np.ndarray, np.generic)):
        a, b = np.asarray(a), np.asarray(b)
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    return a == b


@contextlib.contextmanager
def _deadline(seconds: int):
    """Fail the block with TimeoutError, instead of hanging, after seconds."""
    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _no_child_process() -> bool:
    """True when this process has no child, running or exited unreaped: the
    report joined every worker it forked."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def test_forked_report_equals_inline(n2_tilted_obstacle_solve, monkeypatch):
    problem, sol = n2_tilted_obstacle_solve
    _cpus(monkeypatch, 1)
    inline = sg.free_boundary_report(sol, problem)
    _cpus(monkeypatch, 3)
    with _deadline(60):
        forked = sg.free_boundary_report(sol, problem)
    assert _no_child_process()
    assert (inline.processes, forked.processes) == (1, 3)
    classes = [p["class"] for p in inline.points]
    assert len(classes) >= 5 and "Unresolved" in classes and "Regular" in classes
    assert inline.graph is not None
    assert _bitwise_equal(forked.points, inline.points)
    assert _bitwise_equal(forked.graph, inline.graph)


def _in_children(monkeypatch, action):
    """Make point_record run action(x0) in forked workers only."""
    parent, record = os.getpid(), sg.freeboundary.point_record

    def patched(U0, problem0, x0, delta):
        if os.getpid() != parent:
            action(x0)
        return record(U0, problem0, x0, delta)

    monkeypatch.setattr(sg.freeboundary, "point_record", patched)


def test_child_exception_reaches_the_parent_with_its_type(n2_tilted_obstacle_solve,
                                                          monkeypatch):
    problem, sol = n2_tilted_obstacle_solve

    def fail(x0):
        raise OutOfDomainError(f"worker failed at {list(x0)}")

    _in_children(monkeypatch, fail)
    _cpus(monkeypatch, 2)
    with _deadline(60), pytest.raises(OutOfDomainError, match="worker failed at") as info:
        sg.free_boundary_report(sol, problem)
    assert info.type is OutOfDomainError
    assert _no_child_process()


def test_child_that_dies_raises_with_its_exit_code(n2_tilted_obstacle_solve, monkeypatch):
    problem, sol = n2_tilted_obstacle_solve
    _in_children(monkeypatch, lambda x0: os._exit(1))
    _cpus(monkeypatch, 2)
    with _deadline(60), pytest.raises(SignoriniError, match="code 1") as info:
        sg.free_boundary_report(sol, problem)
    assert info.type is SignoriniError
    assert _no_child_process()


def test_report_in_a_daemonic_process_runs_inline(n2_line_solve, monkeypatch):
    # a multiprocessing pool's workers are daemonic and may not have children
    grid, problem, form, sol = n2_line_solve
    _cpus(monkeypatch, 2)
    ctx = multiprocessing.get_context("fork")
    recv_end, send_end = ctx.Pipe(duplex=False)

    def report():
        rep = sg.free_boundary_report(sol, problem)
        send_end.send((rep.processes, rep.points))

    proc = ctx.Process(target=report, daemon=True)
    proc.start()
    send_end.close()
    with _deadline(60):
        processes, points = recv_end.recv()
    proc.join(timeout=60)
    assert not proc.is_alive() and proc.exitcode == 0
    assert processes == 1
    assert points == sg.free_boundary_report(sol, problem).points


def test_import_loads_no_multiprocessing():
    # only the report's forking path imports it
    src = pathlib.Path(sg.__file__).resolve().parents[1]
    code = ("import sys, signorini; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'multiprocessing'))")
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                         capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"
