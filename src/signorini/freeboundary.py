"""Contact set extraction, free-boundary classification, blow-ups, and the
regular-set graph fit."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import InsufficientDataError, UnsupportedRadiusError
from .coefficients import ProblemSpec, normalize_at
from .functionals import (
    H_FLOOR_FACTOR, FieldSampler, deal, loglog_slope, sphere_columns, sphere_heights,
)
from .grid import Grid, sphere_quadrature
from .solver import SolutionField, contact_tol


def default_tau_gap(a: float, delta: float) -> float:
    """Half the guaranteed frequency gap ((3+delta)/2 - (3-a)/2)/2, capped."""
    return min(0.2, (delta + a) / 4.0)


def reduce_obstacle(U: np.ndarray, problem: ProblemSpec) -> tuple:
    """Zero-obstacle reduction: (V, problem0) with V = U - psi (extended
    constant in y).

    V solves the inhomogeneous problem with zero obstacle and source
    f - (b_ij d_ij psi + (d_i b_ij) d_j psi), the sums d_i b_ij read from
    the coefficients' divergence table; the weighted trace and the
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
    for j, div in enumerate(problem.coeff.divergence):
        thin_term += div * dpsi[j]
        for i in range(grid.n):
            thin_term += B[..., i, j] * np.gradient(dpsi[j], grid.xs[i], axis=i)
    f_new = problem.f - thin_term[..., None]
    psi_ext = psi[..., None]
    problem0 = replace(
        problem,
        psi=np.zeros_like(psi),
        f=f_new,
        boundary=problem.boundary - psi_ext,
    )
    return U - psi_ext, problem0


# ---------------------------------------------------------------------------
# contact set / free boundary masks
# ---------------------------------------------------------------------------


def contact_set(sol: SolutionField, problem: ProblemSpec) -> dict:
    """Masks for the coincidence set (slack <= tol_c = 10 tol max(|psi|, 1))
    and its boundary gamma: the contact nodes with a non-contact axis
    neighbour."""
    grid = problem.grid
    slack = sol.U[..., 0] - problem.psi
    tol_c = contact_tol(sol.tol, problem.psi)
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
    return {"contact": contact, "gamma": gamma, "tol_c": tol_c}


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


def local_columns(U: np.ndarray, problem: ProblemSpec, x0, r: float,
                  delta: float = 0.5) -> tuple:
    """Sphere columns (K' = 0) about x0 in the frame (x0, S), S = B(x0)^{1/2}
    (normalize_at), where the coefficient matrix is the identity at x0, on
    the local ladder r q^j, q = (hi/lo)^{1/12}, over the integers j that
    keep it in [lo, hi]: geometric through r, so the derivative of log M
    at r is a central difference. r is kept when it lies outside [lo, hi]
    (blowup scales above 0.9 R).

    The ladder starts at r/q, or lower when that leaves fewer than the
    five radii sphere_columns needs: psi sums G from the top of the
    ladder down, and the derivative at r reads r/q and r q, so Ntilde and
    M at r read no radius below r/q.

    The sphere sums are one sphere_heights call in the frame, on the
    problem's own coefficients. Returns (columns, k, sampler, clamp_r):
    columns.r[k] = r, sampler is U's FieldSampler in the frame, and clamp_r
    is the smallest ladder radius whose mapped sphere has a sample clamped
    to the box (None when there is none).
    """
    grid = problem.grid
    floor = grid.resolution_floor
    if r < floor:
        raise UnsupportedRadiusError(f"r={r} below grid resolution {floor}")
    lo = max(r / 1.6, floor * 1.02)
    hi = min(5.0 * r, 0.9 * grid.R)
    q = (hi / lo) ** (1.0 / 12)
    j = np.arange(np.ceil(np.log(lo / r) / np.log(q)), np.floor(np.log(hi / r) / np.log(q)) + 1)
    j = np.union1d(j, 0.0)
    k = int(np.searchsorted(j, 0.0))
    start = max(0, min(k - 1, len(j) - 5))
    j, k = j[start:], k - start
    rg = r * q**j
    rules = [sphere_quadrature(grid, ri) for ri in rg]
    frame = (x0, normalize_at(grid, problem.coeff, x0))
    H, L, clamped = sphere_heights(U, problem, rules, la_r=True, frame=frame)
    clamp_r = next((float(ri) for ri, c in zip(rg, clamped) if c), None)
    cols = sphere_columns(rg, H, L, grid.n, grid.a, delta=delta)
    return cols, k, FieldSampler(grid, U, frame), clamp_r


@dataclass
class Classification:
    label: str
    Ntilde: float
    clamp_r: float | None


def classify(U: np.ndarray, problem: ProblemSpec, x0, r_min: float | None = None,
             delta: float = 0.5) -> Classification:
    """Classify a free boundary point by its truncated frequency.

    Subtracts the obstacle and evaluates the adjusted frequency Ntilde
    (K' = 0) at r_min (default 8 max(hx, hy)) on the local ladder of
    local_columns, in the frame at x0 (the coefficient matrix is the
    identity there), from samples of the field itself; then applies
    classify_from_frequency with the default gap. clamp_r is
    local_columns'.
    """
    grid = problem.grid
    if r_min is None:
        r_min = 8.0 * max(grid.hx, grid.hy)
    U0, problem0 = reduce_obstacle(U, problem)
    cols, k, _, clamp_r = local_columns(U0, problem0, x0, r_min, delta=delta)
    nt = float(cols.Ntilde[k])
    return Classification(label=classify_from_frequency(nt, grid.a, delta), Ntilde=nt,
                          clamp_r=clamp_r)


# ---------------------------------------------------------------------------
# decay fits and blow-ups
# ---------------------------------------------------------------------------


def decay_fit(U: np.ndarray, problem: ProblemSpec, x0, r_grid: np.ndarray | None = None) -> dict:
    """Slopes of log sup_{B_r^+(x0)} |U - psi| and of log H_{x0}(r) vs log r.

    The sup is over the nodes of the ball about (x0, 0), read on the node
    block of the largest ball (grid.node_block); the heights are taken in
    the frame at x0, like classify's. At a regular point the sup slope is
    (3-a)/2 and the height slope is n + 3 (height scales with the square
    of the field).
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
    block, radii = grid.node_block(x0, r_grid.max())
    near = diff[block]
    sups = np.array([near[radii <= r].max() for r in r_grid])
    slope = loglog_slope(r_grid, sups, 1e-14 * max(1.0, diff.max()))
    if slope == float("inf"):
        return {"slope": slope, "H_slope": slope, "r": r_grid, "sup": sups}

    # height-based variant around x0 (on the reduction)
    rules = [sphere_quadrature(grid, r, n_angles=48) for r in r_grid]
    frame = (x0, normalize_at(grid, problem.coeff, x0))
    Hs = sphere_heights(U, problem, rules, frame=frame)[0]
    H_slope = loglog_slope(r_grid, Hs, 0.0)
    return {"slope": slope, "H_slope": H_slope, "r": r_grid, "sup": sups, "H": Hs}


def blowup(U: np.ndarray, problem: ProblemSpec, x0, r: float) -> np.ndarray:
    """Frequency-normalized rescaling of the detachment V = U - psi at the
    reference nodes (x, y): V(x0 + r S x, r y) / M(r)^{1/2}, with
    S = B(x0)^{1/2} and M(r) from classify's local ladder (local_columns);
    samples outside the box are clamped to it."""
    grid = problem.grid
    U0, problem0 = reduce_obstacle(U, problem)
    cols, k, sampler, _ = local_columns(U0, problem0, x0, r)
    M_r = float(cols.M[k])
    h_floor = H_FLOOR_FACTOR * float(cols.H.max())
    if not np.isfinite(M_r) or float(cols.H[k]) <= h_floor:
        raise UnsupportedRadiusError(f"degenerate height at scale r={r}")
    d_r = np.sqrt(M_r)
    pts = np.stack(grid.node_mesh(), axis=-1).reshape(-1, grid.n + 1) * r
    return (sampler.sample(pts) / d_r).reshape(grid.node_shape)


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
    points: list  # per-gamma-point dicts
    graph: dict | None
    graph_error: str | None  # at n = 2, why graph_fit gave no graph
    params: dict
    processes: int  # processes that computed the point records


def point_record(U0: np.ndarray, problem0: ProblemSpec, x0, delta: float) -> dict:
    """The report's record of one free-boundary point: its classification
    and decay fit on the reduction (U0, problem0), each in the frame at x0.
    A point whose radii the grid cannot resolve, or whose fit lacks data,
    is recorded as Unresolved with the error."""
    reg_expected = (3.0 - problem0.grid.a) / 2.0
    try:
        cls = classify(U0, problem0, x0, delta=delta)
        fit = decay_fit(U0, problem0, x0)
    except (UnsupportedRadiusError, InsufficientDataError) as exc:
        return {"x0": np.atleast_1d(x0).tolist(), "class": "Unresolved", "error": str(exc)}
    slope_label = "Regular" if abs(fit["slope"] - reg_expected) <= 0.25 else "Other"
    return {
        "x0": np.atleast_1d(x0).tolist(),
        "class": cls.label,
        "Ntilde_rmin": cls.Ntilde,
        "clamp_r": cls.clamp_r,
        "decay_slope": fit["slope"],
        "H_slope": fit["H_slope"],
        "slope_class": slope_label,
        "definitions_agree": bool((cls.label == "Regular") == (slope_label == "Regular")),
    }


def free_boundary_report(sol: SolutionField, problem: ProblemSpec, delta: float = 0.5,
                         alongside=None) -> FreeBoundaryReport:
    """Extract masks, classify every free boundary node with |x| <= R/2,
    fit decay slopes, and (n=2) fit the graph of the regular points or
    record why graph_fit could not (graph_error). The obstacle is
    subtracted once, for all points; each point's record is
    point_record's, claimed by this process's CPUs (deal). alongside,
    called with that reduction (U0, problem0), runs in this process while
    forked children claim the first points: the diagnose pipeline passes
    its profile and identity checks."""
    grid = problem.grid
    masks = contact_set(sol, problem)
    pts = gamma_points(grid, masks["gamma"])
    # keep points away from the lateral boundary where radii fit
    pts = pts[np.all(np.abs(pts) <= 0.5 * grid.R, axis=-1)]
    U0, problem0 = reduce_obstacle(sol.U, problem)
    records, processes = deal(lambda x0: point_record(U0, problem0, x0, delta), pts,
                              None if alongside is None else lambda: alongside(U0, problem0))
    graph = graph_error = None
    if grid.n == 2:
        try:
            graph = graph_fit(np.array([r["x0"] for r in records if r.get("class") == "Regular"]))
        except InsufficientDataError as exc:
            graph_error = str(exc)
    return FreeBoundaryReport(
        contact_mask=masks["contact"],
        gamma_mask=masks["gamma"],
        points=records,
        graph=graph,
        graph_error=graph_error,
        params={
            "tol_c": masks["tol_c"],
            "delta": delta,
            "tau_gap": default_tau_gap(grid.a, delta),
        },
        processes=processes,
    )
