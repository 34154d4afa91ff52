"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured quantities at the stated tolerance."""

import numpy as np
import pytest

import signorini as sg
from signorini.operator import interior_mask
from signorini.solver import near_optimal_omega

from conftest import profile_boundary, solved_profile


def report(num, name, detail):
    print(f"ACCEPTANCE {num} [PASS] {name}: {detail}")


# -- 1. operator consistency ---------------------------------------------------


def test_criterion_1_operator_consistency():
    grids = (1 / 24, 1 / 48, 1 / 96)
    details = []
    for a in (0.0, 0.25, 0.5, 0.75):
        for field in ("y_power", "even_poly"):
            norms = []
            for h in grids:
                grid = sg.build_grid(1, 1.0, h, h, a)
                problem = sg.make_problem(grid)
                form = sg.assemble_energy(grid, problem)
                X, Y = grid.node_mesh()
                U = Y ** (1 - a) if field == "y_power" else X**2 - Y**2 / (1 + a)
                norms.append(sg.residual_l2(form, U))
            if max(norms) <= 1e-11:
                details.append(f"a={a} {field}: exact")
                continue
            orders = np.log2(np.array(norms[:-1]) / np.array(norms[1:]))
            assert orders.min() >= 1.9, (a, field, norms, orders)
            details.append(f"a={a} {field}: order {orders.min():.2f}")
    report(1, "operator consistency", "; ".join(details))


# -- 2. Signorini solve, a=0 ----------------------------------------------------


def test_criterion_2_signorini_solve():
    errs = []
    hs = (1 / 64, 1 / 128, 1 / 192)
    for h in hs:
        grid, problem, form, sol, g = solved_profile(0.0, h)
        errs.append(np.abs(sol.U - g).max())
    orders = np.log(np.array(errs[:-1]) / np.array(errs[1:])) / np.log(
        np.array(hs[:-1]) / np.array(hs[1:])
    )
    assert orders.min() >= 1.0, (errs, orders)

    grid, problem, form, sol, _ = solved_profile(0.0, 1 / 192)
    masks = sg.contact_set(sol, problem)
    from signorini.freeboundary import gamma_points

    pts = gamma_points(grid, masks["gamma"])
    pts = pts[np.abs(pts[:, 0]) < 0.9]
    fb_offset = np.abs(pts[:, 0]).max()
    assert fb_offset <= 2 * grid.hx

    comp = sg.complementarity_report(sol, problem, form)
    scale = max(1.0, float(np.abs(sol.U).max()))
    assert comp["min_gap_max"] <= 10 * sol.tol * scale
    assert comp["prod_gap_max"] <= 10 * sol.tol * scale
    report(
        2,
        "Signorini solve a=0",
        f"Linf orders {np.round(orders, 2).tolist()}, free boundary within "
        f"{fb_offset/grid.hx:.0f} cells, gaps ({comp['min_gap_max']:.1e}, "
        f"{comp['prod_gap_max']:.1e}) <= 10 tol",
    )


# -- 3. optimal exponent ---------------------------------------------------------


@pytest.mark.parametrize("a", [0.0, 0.5])
def test_criterion_3_optimal_exponent(a):
    grid, problem, form, sol, _ = solved_profile(a, 1 / 192)
    fit = sg.decay_fit(sol.U, problem, [0.0], r_grid=np.geomspace(0.06, 0.5, 12))
    expected = (3 - a) / 2
    assert abs(fit["slope"] - expected) <= 0.05, fit["slope"]
    assert abs(fit["H_slope"] - (1 + 3)) <= 0.1, fit["H_slope"]
    report(
        3,
        f"optimal exponent a={a}",
        f"sup-decay slope {fit['slope']:.3f} = {expected} +/- 0.05, "
        f"H slope {fit['H_slope']:.3f} = 4 +/- 0.1",
    )


# -- 4. frequency ---------------------------------------------------------------


@pytest.mark.parametrize("a", [0.0, 0.25, 0.5, 0.75])
def test_criterion_4_frequency_regular(a):
    grid, problem, form, sol, _ = solved_profile(a, 1 / 192)
    prof = sg.radial_profile(sol.U, problem, r_grid=np.geomspace(0.08, 0.9, 40))
    sel = (prof.r >= 0.1) & (prof.r <= 0.5)
    dev = np.abs(prof.Ntilde[sel] - (3 - a) / 2).max()
    assert dev <= 0.05, dev
    report(4, f"frequency a={a}", f"max |Ntilde - {(3-a)/2}| = {dev:.4f} on [0.1, 0.5]")


def test_criterion_4_frequency_degenerate_gap():
    a = 0.0
    grid = sg.build_grid(1, 1.0, 1 / 128, 1 / 128, a)
    problem = sg.make_problem(grid)
    X, Y = grid.node_mesh()
    U = 10.0 * (X**2 - Y**2)  # kappa = 2, scaled clear of the truncation
    prof = sg.radial_profile(U, problem, r_grid=np.geomspace(0.08, 0.9, 40))
    sel = (prof.r >= 0.1) & (prof.r <= 0.5)
    dev = np.abs(prof.Ntilde[sel] - 2.0).max()
    assert dev <= 0.05, dev
    report(4, "frequency kappa=2", f"max |Ntilde - 2| = {dev:.4f} (gap side)")


# -- 5. Almgren monotonicity ------------------------------------------------------


def test_criterion_5_almgren_monotonicity():
    grid, problem, form, sol, _ = solved_profile(0.0, 1 / 128, mix=0.6)
    prof = sg.radial_profile(sol.U, problem, r_grid=np.geomspace(0.1, 0.9, 40), nsub=8)
    phi = prof.Phi[prof.mask_gamma]
    rng = float(phi.max() - phi.min())
    worst = -prof.phi_margin / rng
    assert prof.phi_margin >= -0.01 * rng, (prof.phi_margin, rng)

    # pure profile margin, reported (frequency is constant there: range is noise)
    gridp, problemp, formp, solp, _ = solved_profile(0.0, 1 / 128)
    profp = sg.radial_profile(solp.U, problemp, r_grid=np.geomspace(0.1, 0.9, 40), nsub=8)

    grid2, problem2, form2, sol2, _ = solved_profile(0.0, 1 / 96, b11_slope=0.1)
    prof2 = sg.radial_profile(sol2.U, problem2, r_grid=np.geomspace(0.1, 0.9, 40),
                              Kprime="calibrate", nsub=8)
    assert np.isfinite(prof2.Kprime) and prof2.Kprime <= 1.0
    report(
        5,
        "Almgren monotonicity",
        f"A=I mixed solve: worst drop {worst*100:.2f}% of range (<= 1%); "
        f"pure profile flat with Phi range {np.ptp(profp.Phi[profp.mask_gamma]):.3g}; "
        f"perturbed b11=1+0.1x: calibrated K' = {prof2.Kprime} <= 1.0",
    )


# -- 6. Weiss monotonicity ---------------------------------------------------------


def test_criterion_6_weiss():
    a = 0.0
    grid = sg.build_grid(1, 1.0, 1 / 128, 1 / 128, a)
    problem = sg.make_problem(grid)
    U = profile_boundary(grid, a)
    prof = sg.radial_profile(U, problem, r_grid=np.geomspace(0.1, 0.9, 40), nsub=8)
    scale = prof.sigma / prof.r ** (3 - a) * (3 - a) / (2 * prof.r) * prof.M
    wdev = np.abs(prof.W / scale).max()
    assert wdev <= 0.02, wdev

    grid1, problem1, form1, sol1, _ = solved_profile(0.0, 1 / 128, mix=0.6)
    prof1 = sg.radial_profile(sol1.U, problem1, r_grid=np.geomspace(0.1, 0.9, 40), nsub=8)
    Wrng = float(prof1.W.max() - prof1.W.min())
    assert prof1.weiss_margin >= -0.01 * Wrng, (prof1.weiss_margin, Wrng)

    grid2, problem2, form2, sol2, _ = solved_profile(0.0, 1 / 96, b11_slope=0.1)
    prof2 = sg.radial_profile(sol2.U, problem2, r_grid=np.geomspace(0.1, 0.9, 40),
                              C_weiss="calibrate", nsub=8)
    assert np.isfinite(prof2.C_weiss) and prof2.C_weiss <= 1.0
    report(
        6,
        "Weiss monotonicity",
        f"|W|/scale = {wdev:.4f} <= 0.02 on the exact profile; mixed-solve "
        f"worst drop {-prof1.weiss_margin/max(Wrng,1e-300)*100:.2f}% of range; "
        f"perturbed: C_weiss = {prof2.C_weiss} <= 1.0",
    )


# -- 7. identities ------------------------------------------------------------------


def test_criterion_7_identities():
    grid, problem, form, sol, _ = solved_profile(0.0, 1 / 128)
    # radii 0.2, 0.25, ..., 0.8: the surface energy is compared with the
    # profile's solid I at 0.3, 0.5 (the middle radius) and 0.7
    prof = sg.radial_profile(sol.U, problem, r_grid=np.linspace(0.2, 0.8, 13))
    checks = sg.identity_checks(sol.U, problem, prof)
    h_err = checks["height_derivative_rel"].max()
    assert h_err <= 0.02, h_err
    cross = [abs(sg.total_energy_surface(sol.U, problem, prof.r[k]) - prof.I[k]) / prof.I[k]
             for k in (2, 10)]
    cross.append(sg.surface_cross_check(sol.U, problem, prof)["rel"])
    assert max(cross) <= 0.02, cross

    a = 0.5
    grid2 = sg.build_grid(1, 1.0, 1 / 128, 1 / 128, a)
    problem2 = sg.make_problem(grid2)
    _, Y = grid2.node_mesh()
    U2 = Y ** (1 - a)
    prof2 = sg.radial_profile(U2, problem2, r_grid=np.linspace(0.2, 0.8, 7))
    checks2 = sg.identity_checks(U2, problem2, prof2)
    r_err = checks2["rellich_rel"].max()
    assert r_err <= 0.02, r_err
    report(
        7,
        "identities",
        f"H' identity max rel {h_err:.2e} <= 2%; surface-vs-solid energy max rel "
        f"{max(cross):.2e} <= 2%; exact-case Rellich max rel {r_err:.2e} <= 2%",
    )


# -- 8. penalization consistency -------------------------------------------------------


def test_criterion_8_penalization():
    ladder = (1e-1, 1e-2, 1e-3)
    cases = []
    # contact profile, a = 0
    cases.append(solved_profile(0.0, 1 / 48))
    # contact profile at a = 0.5 (ODE-backed boundary data)
    cases.append(solved_profile(0.5, 1 / 48))
    # inactive obstacle
    grid = sg.build_grid(1, 1.0, 1 / 48, 1 / 48, 0.25)
    _, Y = grid.node_mesh()
    problem = sg.make_problem(grid, psi=-1.0, boundary=Y**0.75)
    form = sg.assemble_energy(grid, problem)
    sol = sg.solve_psor(form, problem, omega=near_optimal_omega(grid))
    cases.append((grid, problem, form, sol, None))

    details = []
    for k, (grid, problem, form, sol, _) in enumerate(cases):
        dists = []
        for eps in ladder:
            pen = sg.solve_penalized(form, problem, eps=eps)
            dists.append(float(np.abs(pen.U - sol.U).max()))
        strict = all(d2 < d1 for d1, d2 in zip(dists, dists[1:]))
        inactive_floor = max(dists) <= 100 * sol.tol  # no contact: all agree already
        assert strict or inactive_floor, (k, dists)
        details.append(f"case{k}: {['%.2e' % d for d in dists]}")
    report(8, "penalization consistency", "; ".join(details))


# -- 9. oracle integrity ------------------------------------------------------------


def test_criterion_9_oracle_integrity():
    prof0 = sg.profile_ode(0.0)
    th = np.linspace(0, np.pi, 721)
    cos_dev = np.abs(prof0(th) - np.cos(1.5 * th)).max()
    assert cos_dev <= 1e-6

    residuals = {}
    for a in (0.25, 0.5, 0.75):
        residuals[a] = sg.profile_ode(a).residual
        assert residuals[a] <= 1e-6

        ref = sg.exact_solution("signorini_profile", a)
        norms = []
        for h in (1 / 24, 1 / 48, 1 / 96):
            grid = sg.build_grid(1, 1.0, h, h, a)
            problem = sg.make_problem(grid)
            form = sg.assemble_energy(grid, problem)
            pts = np.stack(grid.node_mesh(), axis=-1)
            r = sg.apply_operator(form, ref(pts))
            X, Y = grid.node_mesh()
            keep = interior_mask(grid) & ~((X <= 0.1) & (Y <= 0.1))  # off the contact ray
            norms.append(np.sqrt((r[keep] ** 2).sum() * grid.hx * grid.hy))
        orders = np.log2(np.array(norms[:-1]) / np.array(norms[1:]))
        assert orders.min() >= 1.9, (a, norms)
    report(
        9,
        "oracle integrity",
        f"a=0 vs cos(3 theta/2): {cos_dev:.2e} <= 1e-6; residuals "
        + ", ".join(f"a={a}: {v:.1e}" for a, v in residuals.items())
        + " <= 1e-6; off-ray residual order >= 1.9",
    )


# -- 10. decay diagnostics -----------------------------------------------------------


def test_criterion_10_decay_diagnostics():
    details = []
    for a in (0.0, 0.5):
        grid, problem, form, sol, _ = solved_profile(a, 1 / 128)
        out = sg.oscillation_decay(sol.U, problem, [0.0], np.geomspace(0.08, 0.5, 10))
        floor = 1 + 1 - a + 0.5
        assert out["slope"] >= floor, (a, out["slope"])
        details.append(f"a={a}: oscillation slope {out['slope']:.2f} >= {floor}")

    a = 0.25
    grid = sg.build_grid(1, 1.0, 1 / 64, 1 / 64, a)
    _, Y = grid.node_mesh()
    c = 1.7
    out = sg.campanato_decay(c * Y ** (1 - a), grid, [0.0], np.geomspace(0.1, 0.5, 6))
    assert abs(out["b"] - c) <= 1e-10
    assert out["residuals"].max() <= 1e-10
    details.append(f"campanato: |b - c| = {abs(out['b']-c):.1e}, residual {out['residuals'].max():.1e}")
    report(10, "decay diagnostics", "; ".join(details))
