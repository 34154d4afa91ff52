"""Contact set extraction, free-boundary classification, blow-ups, and the
regular-set graph fit."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import InsufficientDataError, UnsupportedRadiusError
from .coefficients import ProblemSpec, normalize_at
from .functionals import FieldSampler, GeometryFields, radial_profile, sphere_heights
from .grid import Grid, sphere_quadrature
from .solver import SolutionField


def default_tau_gap(a: float, delta: float) -> float:
    """Half the guaranteed frequency gap ((3+delta)/2 - (3-a)/2)/2, capped."""
    return min(0.2, (delta + a) / 4.0)


def reduce_obstacle(U: np.ndarray, problem: ProblemSpec) -> tuple:
    """Zero-obstacle reduction: (V, problem0) with V = U - psi (extended
    constant in y).

    V solves the inhomogeneous problem with zero obstacle and source
    f - (b_ij d_ij psi + (d_i b_ij) d_j psi); the weighted trace and the
    contact bookkeeping are unchanged. All frequency/decay analysis runs
    on this reduction (a no-op when psi is identically zero).
    """
    grid = problem.grid
    if float(np.abs(problem.psi).max()) == 0.0:
        return U, problem
    psi = problem.psi
    dpsi = [np.gradient(psi, grid.xs[d], axis=d) for d in range(grid.n)]
    B = problem.coeff.table
    thin_term = np.zeros_like(psi)
    for i in range(grid.n):
        for j in range(grid.n):
            thin_term += B[..., i, j] * np.gradient(dpsi[j], grid.xs[i], axis=i)
            thin_term += np.gradient(B[..., i, j], grid.xs[i], axis=i) * dpsi[j]
    f_new = problem.f - thin_term[..., None]
    psi_ext = psi[..., None]
    problem0 = replace(
        problem,
        psi=np.zeros_like(psi),
        f=f_new,
        boundary=problem.boundary - psi_ext,
    )
    return U - psi_ext, problem0


def default_trace_tol(grid: Grid, trace_scale: float) -> float:
    """Resolution-matched trace threshold: near a regular point the trace
    vanishes like dist^{(1-a)/2}, so at one-or-two-cell resolution the
    smallest resolvable magnitude is ~ (4 h / R)^{(1-a)/2} of its scale."""
    h = max(grid.hx, grid.hy)
    return trace_scale * (4.0 * h / grid.R) ** ((1.0 - grid.a) / 2.0)


# ---------------------------------------------------------------------------
# contact set / free boundary masks
# ---------------------------------------------------------------------------


def contact_set(sol: SolutionField, problem: ProblemSpec) -> dict:
    """Masks for the coincidence set (slack <= tol_c = 10 tol max(|psi|, 1)),
    its boundary, and the extended free boundary (small slack AND a trace
    below default_trace_tol)."""
    grid = problem.grid
    slack = sol.U[..., 0] - problem.psi
    tol_c = 10.0 * sol.tol * max(float(np.abs(problem.psi).max()), 1.0)
    contact = slack <= tol_c
    gamma = np.zeros_like(contact)
    for d in range(grid.n):
        inner = [slice(None)] * grid.n
        lo = list(inner)
        hi = list(inner)
        lo[d] = slice(None, -1)
        hi[d] = slice(1, None)
        edge = contact[tuple(lo)] != contact[tuple(hi)]
        gamma[tuple(lo)] |= edge & contact[tuple(lo)]
        gamma[tuple(hi)] |= edge & contact[tuple(hi)]
    trace_tol = default_trace_tol(grid, max(float(np.abs(sol.trace).max()), 1e-300))
    gamma_star = contact & (np.abs(sol.trace) <= trace_tol)
    return {
        "contact": contact,
        "gamma": gamma,
        "gamma_star": gamma_star,
        "tol_c": tol_c,
        "trace_tol": trace_tol,
    }


def gamma_points(grid: Grid, gamma_mask: np.ndarray) -> np.ndarray:
    """Thin coordinates of free boundary nodes, shape (m, n)."""
    idx = np.where(gamma_mask)
    pts = np.stack([grid.xs[d][idx[d]] for d in range(grid.n)], axis=-1)
    return pts


# ---------------------------------------------------------------------------
# per-point frequency classification
# ---------------------------------------------------------------------------


def classify_from_frequency(Ntilde_rmin: float, a: float, delta: float,
                            tau_gap: float | None = None) -> str:
    """Threshold rule: Regular below (3-a)/2 + tau, Degenerate above
    (3+delta)/2 - tau, Unresolved in between."""
    if tau_gap is None:
        tau_gap = default_tau_gap(a, delta)
    if Ntilde_rmin < (3.0 - a) / 2.0 + tau_gap:
        return "Regular"
    if Ntilde_rmin > (3.0 + delta) / 2.0 - tau_gap:
        return "Degenerate"
    return "Unresolved"


def frequency_at(U: np.ndarray, problem: ProblemSpec, r_min: float, delta: float = 0.5) -> float:
    """Ntilde(r_min) on a local geometric ladder with r_min interior, so the
    derivative of log M there is a central (not one-sided) difference."""
    grid = problem.grid
    floor = 2.0 * max(grid.hx, grid.hy)
    if r_min < floor:
        raise UnsupportedRadiusError(f"r_min={r_min} below grid resolution {floor}")
    lo = max(r_min / 1.6, floor * 1.02)
    hi = min(5.0 * r_min, 0.9 * grid.R)
    rg = np.unique(np.append(np.geomspace(lo, hi, 13), r_min))
    prof = radial_profile(U, problem, r_grid=rg, Kprime=0.0, delta=delta, C_weiss=0.0)
    k = int(np.argmin(np.abs(prof.r - r_min)))
    return float(prof.Ntilde[k])


@dataclass
class Classification:
    label: str
    Ntilde: float


def classify(U: np.ndarray, problem: ProblemSpec, x0, r_min: float | None = None,
             delta: float = 0.5) -> Classification:
    """Classify a free boundary point by its truncated frequency.

    Subtracts the obstacle and normalizes coordinates at x0 (so the
    coefficient matrix is the identity there), then evaluates the
    adjusted frequency at r_min (default 8 max(hx, hy)) and applies
    classify_from_frequency with the default gap.
    """
    grid = problem.grid
    if r_min is None:
        r_min = 8.0 * max(grid.hx, grid.hy)
    U0, problem0 = reduce_obstacle(U, problem)
    norm_problem, norm_U = normalize_at(problem0, U0, x0)
    nt = frequency_at(norm_U, norm_problem, r_min, delta=delta)
    return Classification(label=classify_from_frequency(nt, grid.a, delta), Ntilde=nt)


# ---------------------------------------------------------------------------
# decay fits and blow-ups
# ---------------------------------------------------------------------------


def decay_fit(U: np.ndarray, problem: ProblemSpec, x0, r_grid: np.ndarray | None = None) -> dict:
    """Slopes of log sup_{B_r^+(x0)} |U - psi| and of log H_{x0}(r) vs log r.

    At a regular point the sup slope is (3-a)/2 and the height slope is
    n + 3 (height scales with the square of the field).
    """
    grid = problem.grid
    if r_grid is None:
        hi = 0.5 * grid.R
        lo = min(8.0 * max(grid.hx, grid.hy), 0.5 * hi)
        r_grid = np.geomspace(lo, hi, 12)
    r_grid = np.asarray(r_grid, dtype=float)
    if len(r_grid) < 4:
        raise InsufficientDataError("need at least 4 radii for the decay fit")
    U, _ = reduce_obstacle(U, problem)  # detachment field, obstacle extended constant in y
    diff = np.abs(U)
    radii = grid.node_radii(x0)
    sups = np.array([diff[radii <= r].max() for r in r_grid])
    if sups.max() <= 1e-14 * max(1.0, np.abs(U).max()):
        return {"slope": float("inf"), "H_slope": float("inf"), "r": r_grid, "sup": sups}
    slope = float(np.polyfit(np.log(r_grid), np.log(np.maximum(sups, 1e-300)), 1)[0])

    # height-based variant around x0 (on the reduction)
    rules = [sphere_quadrature(grid, r, n_angles=48) for r in r_grid]
    Hs = sphere_heights(U, GeometryFields(grid, problem.coeff), rules, x0=x0)[0]
    H_slope = float(np.polyfit(np.log(r_grid), np.log(np.maximum(Hs, 1e-300)), 1)[0])
    return {"slope": slope, "H_slope": H_slope, "r": r_grid, "sup": sups, "H": Hs}


def blowup(U: np.ndarray, problem: ProblemSpec, x0, r: float) -> np.ndarray:
    """Frequency-normalized rescaling of the detachment V = U - psi:
    V(x0 + r x, r y) / M(r)^{1/2} resampled onto the reference grid
    (obstacle subtracted and coordinates normalized at x0 first)."""
    grid = problem.grid
    U0, problem0 = reduce_obstacle(U, problem)
    norm_problem, norm_U = normalize_at(problem0, U0, x0)
    lo = max(2.05 * max(grid.hx, grid.hy), r / 4.0)
    hi = min(4.0 * r, 0.9 * grid.R)
    rg = np.unique(np.append(np.geomspace(lo, hi, 9), np.clip(r, lo, hi)))
    prof = radial_profile(norm_U, norm_problem, r_grid=rg, Kprime=0.0, C_weiss=0.0)
    k = int(np.argmin(np.abs(prof.r - r)))
    M_r = float(prof.M[k])
    h_floor = 1e-14 * float(prof.H.max())
    if not np.isfinite(M_r) or float(prof.H[k]) <= h_floor:
        raise UnsupportedRadiusError(f"degenerate height at scale r={r}")
    d_r = np.sqrt(M_r)
    sampler = FieldSampler(grid, norm_U)
    mesh = grid.node_mesh()
    pts = np.stack(mesh, axis=-1).reshape(-1, grid.n + 1) * r
    for d in range(grid.n):
        pts[:, d] = np.clip(pts[:, d], -grid.R, grid.R)
    pts[:, -1] = np.clip(pts[:, -1], 0.0, grid.R)
    return (sampler(pts) / d_r).reshape(grid.node_shape)


# ---------------------------------------------------------------------------
# regular-set graph fit (n = 2)
# ---------------------------------------------------------------------------


def graph_fit(points: np.ndarray) -> dict:
    """Fit the regular free-boundary point cloud as a rotated graph
    x2' = g(x1') and scan Hoelder quotients of g'.

    points: (m, 2) regular-point coordinates. The rotation aligns the
    first axis with the principal direction of the cloud. gamma_est is
    the largest exponent in the scan 0.1, 0.2, ..., 0.9 whose difference
    quotient stays within 3x the quotient at the smallest exponent (a
    diagnostic scan, not a certified estimate).
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < 5:
        raise InsufficientDataError("graph fit needs at least 5 regular points in the plane")
    gammas = np.arange(0.1, 0.91, 0.1)
    center = pts.mean(axis=0)
    Xc = pts - center
    cov = Xc.T @ Xc / len(pts)
    w, V = np.linalg.eigh(cov)
    tangent = V[:, np.argmax(w)]
    normal = V[:, np.argmin(w)]
    s = Xc @ tangent
    g = Xc @ normal
    order = np.argsort(s)
    s, g = s[order], g[order]
    # collapse duplicate abscissae before differencing
    s_u, inv = np.unique(np.round(s, 12), return_inverse=True)
    g_u = np.zeros(len(s_u))
    cnt = np.zeros(len(s_u))
    np.add.at(g_u, inv, g)
    np.add.at(cnt, inv, 1.0)
    g_u /= cnt
    if len(s_u) < 5:
        raise InsufficientDataError("degenerate point cloud for the graph fit")
    ds = np.diff(s_u)
    gp = np.diff(g_u) / ds
    mid = 0.5 * (s_u[:-1] + s_u[1:])
    quotients = []
    for gam in gammas:
        q = 0.0
        for i in range(len(gp)):
            dd = np.abs(mid - mid[i])
            ok = dd > 0
            if ok.any():
                q = max(q, float((np.abs(gp - gp[i])[ok] / dd[ok] ** gam).max()))
        quotients.append(q)
    quotients = np.asarray(quotients)
    base = max(quotients[0], 1e-14)
    good = quotients <= 3.0 * base
    gamma_est = float(gammas[np.where(good)[0].max()]) if good.any() else 0.0
    return {
        "s": s_u,
        "g": g_u,
        "gprime": gp,
        "tangent": tangent,
        "normal": normal,
        "center": center,
        "gammas": gammas,
        "quotients": quotients,
        "gamma_est": gamma_est,
    }


# ---------------------------------------------------------------------------
# assembled report
# ---------------------------------------------------------------------------


@dataclass
class FreeBoundaryReport:
    contact_mask: np.ndarray
    gamma_mask: np.ndarray
    gamma_star_mask: np.ndarray
    points: list  # per-gamma-point dicts
    graph: dict | None
    params: dict



def free_boundary_report(
    sol: SolutionField,
    problem: ProblemSpec,
    delta: float = 0.5,
    max_points: int = 16,
) -> FreeBoundaryReport:
    """Extract masks, classify up to max_points free boundary nodes, fit
    decay slopes, and (n=2, enough regular points) fit the graph. The
    obstacle is subtracted once, for all points."""
    grid = problem.grid
    masks = contact_set(sol, problem)
    pts = gamma_points(grid, masks["gamma"])
    # keep points away from the lateral boundary where radii fit
    if len(pts):
        keep = np.all(np.abs(pts) <= 0.5 * grid.R, axis=-1)
        pts = pts[keep]
    if len(pts) > max_points:
        sel = np.linspace(0, len(pts) - 1, max_points).astype(int)
        pts = pts[sel]
    records = []
    reg_expected = (3.0 - grid.a) / 2.0
    U0, problem0 = reduce_obstacle(sol.U, problem)
    for x0 in pts:
        try:
            cls = classify(U0, problem0, x0, delta=delta)
            fit = decay_fit(U0, problem0, x0)
            slope_label = "Regular" if abs(fit["slope"] - reg_expected) <= 0.25 else "Other"
            records.append(
                {
                    "x0": np.atleast_1d(x0).tolist(),
                    "class": cls.label,
                    "Ntilde_rmin": cls.Ntilde,
                    "decay_slope": fit["slope"],
                    "H_slope": fit["H_slope"],
                    "slope_class": slope_label,
                    "definitions_agree": bool(
                        (cls.label == "Regular") == (slope_label == "Regular")
                    ),
                }
            )
        except (UnsupportedRadiusError, InsufficientDataError) as exc:
            records.append({"x0": np.atleast_1d(x0).tolist(), "class": "Unresolved",
                            "error": str(exc)})
    graph = None
    if grid.n == 2:
        reg_pts = np.array([r["x0"] for r in records if r.get("class") == "Regular"])
        if len(reg_pts) >= 5:
            graph = graph_fit(reg_pts)
    return FreeBoundaryReport(
        contact_mask=masks["contact"],
        gamma_mask=masks["gamma"],
        gamma_star_mask=masks["gamma_star"],
        points=records,
        graph=graph,
        params={
            "tol_c": masks["tol_c"],
            "trace_tol": masks["trace_tol"],
            "delta": delta,
            "tau_gap": default_tau_gap(grid.a, delta),
        },
    )
