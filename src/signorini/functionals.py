"""Radial functionals of a solved field: height, mass, energy, generalized
frequency, and the adjusted monotone quantities. radial_profile computes
the sphere and ball sums of a field once; the identity checks and the
energy cross-check read its columns. sphere_columns turns the sphere sums
H and L into G, psi, M and Ntilde, for radial_profile and for the
free-boundary classification alike. sphere_heights is one pass per
chunk of sphere rules (FieldSampler) in a frame (x0, S), the origin's
being (0, I). frame_factors evaluates the coefficients' mu~ and la_r in a
frame, for the pass and the surface terms alike. deal is the one place
that spreads work over this process's CPUs: forked children claim the
free-boundary report's points while this process runs work of its own,
the diagnose pipeline's profile and identity checks.

All ball/sphere integrals treat the field as evenly reflected across the
thin plane: upper-half quadratures are doubled. The weight |y|^a is
carried exactly by the sphere rules and the cell measures.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvalidConfigurationError, InsufficientDataError, SignoriniError
from .coefficients import CoefficientField, ProblemSpec
from .grid import Grid, ball_sums, locate, read, sphere_quadrature
from .operator import cell_average, cell_energy_density, neumann_trace


# ---------------------------------------------------------------------------
# the coefficients in a frame
# ---------------------------------------------------------------------------


def frame_factors(grid: Grid, coeff: CoefficientField, points: np.ndarray, X: np.ndarray,
                  S_inv: np.ndarray, la_r: bool = False) -> tuple:
    """(B, mu~, la_r / |y|^a) at the points P = (p, y) (..., n+1) of the
    frame (x0, S), given X = x0 + S p (..., n) and S_inv = S^{-1}; la_r is
    None without la_r, and a is the grid's. The frame's coefficient matrix
    is A = S^{-1} B(X) S^{-1} (+) 1, so with B = B(X) and z = S^{-1} p,
    mu~ = <A P, P>/|P|^2 = (<B z, z> + y^2)/|P|^2 (mu = mu~ |y|^a) and
    la_r = div(|y|^a A grad |P|) = |y|^a (tr(S^{-2} B) + 1 + a - mu~
    + sum_j (sum_i d_i b_ij)(X) z_j) / |P|, the divergence read from the
    coefficients' table (exact for symmetric S). The origin's frame is
    (0, I), where X = z = p."""
    pts = np.asarray(points, dtype=float)
    n = grid.n
    # a row per thin axis: numpy is slow along a short last axis
    z = (S_inv @ pts.reshape(-1, n + 1)[:, :n].T).reshape((n,) + pts.shape[:-1])
    B = coeff.eval_B(X)
    y2 = pts[..., n] ** 2
    azz = sum(B[..., i, i] * (z[i] * z[i]) for i in range(n)) + y2
    for i in range(n):
        for j in range(i + 1, n):
            azz += (B[..., i, j] + B[..., j, i]) * (z[i] * z[j])
    r2 = sum(pts[..., i] * pts[..., i] for i in range(n)) + y2
    mu = azz / r2
    if not la_r:
        return B, mu, None
    C = S_inv @ S_inv
    stencil = locate(grid.xs, X, even=grid.evenly_spaced[:n])
    lar = sum(C[i, j] * B[..., i, j] for i in range(n) for j in range(n)) + (1.0 + grid.a) - mu
    for j, div in enumerate(coeff.divergence):
        lar += read(stencil, div) * z[j]
    return B, mu, lar / np.sqrt(r2)


# ---------------------------------------------------------------------------
# field sampling (thin-layer aware) and the fused sphere pass
# ---------------------------------------------------------------------------


class FieldSampler:
    """Samples a node field off the nodes by grid.locate and grid.read;
    inside the first y-layer the y profile uses the (1, y^{1-a}) basis so
    fields with the natural singular expansion are sampled without the
    O(h^{1-a}) bias of a linear interpolant (multilinear at a=0).

    The points P = (p, y) are coordinates of the frame (x0, S) (S from
    normalize_at; None is the origin's frame (0, I)), and U is sampled at
    (x0 + S p, y): this is the one place where x0 + S p is computed. Thin
    coordinates outside the box are clamped to it; S^{-1} is computed once
    per sampler.

    Calling the sampler on consecutive sphere rules is sphere_heights'
    pass over them: their points are mapped into U's coordinates once,
    which also tells whether a rule has a clamped sample, U is read there
    once, and frame_factors evaluates B and reads the divergence table
    once at the mapped points (unclamped), in the frame's variables."""

    def __init__(self, grid: Grid, U: np.ndarray, frame=None):
        self.grid = grid
        self._U = np.asarray(U, dtype=float)
        self.frame = frame or (np.zeros(grid.n), np.eye(grid.n))
        self._S_inv = np.linalg.inv(self.frame[1])

    def _locate(self, X: np.ndarray, y: np.ndarray, clamp: bool):
        """U's stencil at the thin coordinates X (n, m), clamped to the box
        when clamp, and y (m,). X is taken a row per thin axis: numpy is
        slow along a short last axis."""
        R = self.grid.R
        cols = [np.clip(c, -R, R) for c in X] if clamp else list(X)
        return locate(self.grid.xs + (self.grid.ys,), tuple(cols + [y]), 1.0 - self.grid.a,
                      self.grid.evenly_spaced)

    def _map(self, points: np.ndarray) -> np.ndarray:
        """X = x0 + S p (n, m) of the points (m, n+1)."""
        X = self.frame[1] @ points[:, :self.grid.n].T
        X += np.reshape(self.frame[0], (self.grid.n, 1))
        return X

    def sample(self, points: np.ndarray) -> np.ndarray:
        """U at the points."""
        pts = np.asarray(points, dtype=float)
        flat = pts.reshape(-1, self.grid.n + 1)
        X = self._map(flat)
        clamp = X.max() > self.grid.R or X.min() < -self.grid.R
        return read(self._locate(X, flat[:, -1], clamp), self._U).reshape(pts.shape[:-1])

    def __call__(self, rules, coeff: CoefficientField, la_r: bool = False) -> list:
        """[(H, L, clamped)] of consecutive rules in one pass: H = 2
        int_{S_r} U^2 mu~ |y|^a, L = 2 int_{S_r} U^2 la_r (nan without
        la_r), and whether any sample of the rule is clamped to the box;
        mu~ and la_r are those of coeff in the frame. The rules' points
        are mapped, located and read together; each rule's sums and clamp
        flag come from its own slice, so they equal those of a pass over
        the rule alone."""
        n, R = self.grid.n, self.grid.R
        points = np.concatenate([rule.points for rule in rules])
        starts = np.cumsum([0] + [rule.size for rule in rules])
        X = self._map(points)
        hi = np.maximum.reduceat(X, starts[:-1], axis=1).max(axis=0)
        lo = np.minimum.reduceat(X, starts[:-1], axis=1).min(axis=0)
        clamped = (hi > R) | (lo < -R)
        stencil = self._locate(X, points[:, n], clamped.any())
        u2 = read(stencil, self._U) ** 2
        _, mut, lar = frame_factors(self.grid, coeff, points, X.T, self._S_inv, la_r)
        hm = u2 * mut
        hl = u2 * lar if la_r else None
        out = []
        for rule, s, e, c in zip(rules, starts[:-1], starts[1:], clamped):
            weights = rule.weights
            L = 2.0 * float(np.dot(weights, hl[s:e])) if la_r else float("nan")
            out.append((2.0 * float(np.dot(weights, hm[s:e])), L, bool(c)))
        return out


# ---------------------------------------------------------------------------
# dealing work over this process's CPUs
# ---------------------------------------------------------------------------


# A fork-and-pipe round trip of a 65 MB diagnose process takes 3.6 to 4.2 ms
# (quartiles of 30; median 3.9 ms) on 2 vCPUs, so a diagnose run forks once,
# for the free-boundary report's points: their records (17 on diag2d_tilt)
# take 130 to 165 ms of CPU inline, and this process runs the profile and
# identity checks (about 70 ms) while the children claim them. Dealing the
# sphere calls of those two stages on their own saved at most 2.5 ms of 42.5
# and 32 ms, so they run inline.
#
# The claim queue is a pipe of 4-byte start indices, written in full before
# the fork: reading one record claims it, and an empty pipe with no writer
# left reads as the end of the work. QUEUE_RECORDS records (16 KiB) fit in
# the pipe buffer on every platform, so the write cannot block; a longer
# list is claimed in runs of consecutive items.
QUEUE_RECORDS = 4096


def _claim(queue: int, task, items, run: int) -> list:
    """[(i, task(items[i]))] for the items this process claims from the
    queue, run consecutive items per record, until the queue is empty."""
    out = []
    while record := os.read(queue, 4):
        start = int.from_bytes(record, "little")
        out += [(i, task(items[i])) for i in range(start, min(start + run, len(items)))]
    return out


def _send(conn, queue: int, task, items, run: int) -> None:
    """A forked worker's body: send ("ok", its claims), or ("error", exc)
    for the first claimed item that raised."""
    try:
        out = ("ok", _claim(queue, task, items, run))
    except Exception as exc:  # re-raised by the parent
        out = ("error", exc)
    conn.send(out)
    conn.close()


def deal(task, items, alongside=None) -> tuple:
    """[task(item) for item in items], in order, and the number of
    processes that computed it; alongside, when given, is called with no
    argument in this process before it claims any item.

    One process per CPU of this process's affinity mask, at most one per
    item: k - 1 forked children claim the items one at a time from a
    shared queue while this process runs alongside, and then this process
    claims what is left. Every item runs the same code on the same arrays,
    so the results equal those of the inline loop, which runs (after
    alongside) when k == 1, where fork is unavailable and in a daemonic
    process. An exception raised by alongside or by an item this process
    claims propagates; a child's is re-raised here with its type; a child
    that exits without sending raises SignoriniError with its exit code.
    No child outlives the call.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    k = min(len(items), cpus or 1)
    if k > 1:
        import multiprocessing  # here, so that `import signorini` does not load it

        # a daemonic process (a multiprocessing pool's worker) may not have children
        if ("fork" not in multiprocessing.get_all_start_methods()
                or multiprocessing.current_process().daemon):
            k = 1
    if k <= 1:
        if alongside is not None:
            alongside()
        return [task(item) for item in items], 1

    run = -(-len(items) // QUEUE_RECORDS)
    queue, fill = os.pipe()
    with os.fdopen(fill, "wb") as fh:  # closed before the fork: no child holds a writer
        fh.write(b"".join(i.to_bytes(4, "little") for i in range(0, len(items), run)))
    # fork, not spawn: a child reads the task's arrays from the parent's
    # memory, with no pickling and no fresh import
    ctx = multiprocessing.get_context("fork")
    children = []
    try:
        for _ in range(1, k):
            recv_end, send_end = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_send, args=(send_end, queue, task, items, run))
            proc.start()
            children.append((proc, recv_end))
            send_end.close()  # so a child that dies leaves its pipe at EOF
        if alongside is not None:
            alongside()
        claims = _claim(queue, task, items, run)
        for proc, conn in children:
            try:
                status, payload = conn.recv()
            except EOFError:
                proc.join()
                raise SignoriniError(
                    f"worker exited with code {proc.exitcode} before sending its results"
                ) from None
            if status == "error":
                raise payload
            claims += payload
    except BaseException:
        for proc, _ in children:
            proc.kill()
        raise
    finally:
        os.close(queue)
        for proc, conn in children:
            conn.close()
            proc.join()
    return [value for _, value in sorted(claims, key=lambda claim: claim[0])], k


def conjugate_variable(grid: Grid, U: np.ndarray) -> np.ndarray:
    """Nodal w = y^a U_y by the kernel-consistent difference quotient
    (1-a)(U_{j+1}-U_{j-1})/(y_{j+1}^{1-a}-y_{j-1}^{1-a}): exact on
    span{1, y^{1-a}} (so exact up to the thin set for the natural singular
    expansion), an O(h^2) estimator on smooth fields, plain central
    differences at a=0. Row j=0 is neumann_trace."""
    U = np.asarray(U, dtype=float)
    ys, a = grid.ys, grid.a
    w = np.empty_like(U)
    denom = ys[2:] ** (1.0 - a) - ys[:-2] ** (1.0 - a)
    w[..., 1:-1] = (1.0 - a) * (U[..., 2:] - U[..., :-2]) / denom
    w[..., 0] = neumann_trace(grid, U)
    w[..., -1] = (1.0 - a) * (U[..., -1] - U[..., -2]) / (
        ys[-1] ** (1.0 - a) - ys[-2] ** (1.0 - a)
    )
    return w


# ---------------------------------------------------------------------------
# sphere and ball sums
# ---------------------------------------------------------------------------


H_FLOOR_FACTOR = 1e-14

# The most samples of one sphere_heights pass (a larger rule gets a pass of
# its own): four 64-angle rules at n = 2, every rule of a profile or ladder
# at n = 1. The three diagnostic stages of diag2d_tilt (n = 2, h = 1/16),
# inline on one vCPU, took 226 ms of CPU at 4096 samples (a pass per rule),
# 188 ms at 8192, 181 ms at 12288, 176 ms at 16384 and 218 ms at 32768 (the
# medians of 16 to 24 interleaved rounds; one unbounded pass per call took
# 238 ms); diag1d_fine's took 45 ms with a pass per rule and 33 ms at 8192
# and at 16384.
PASS_SAMPLES = 16384


class SphereHeights(NamedTuple):
    H: np.ndarray
    L: np.ndarray | None  # None without la_r
    clamped: np.ndarray  # per rule: whether a sample is clamped to the box


def sphere_heights(U: np.ndarray, problem: ProblemSpec, rules, la_r: bool = False,
                   frame=None) -> SphereHeights:
    """(H, L, clamped) per rule: H = 2 int_{S_r} U^2 mu~ |y|^a
    on the sphere about the origin (even reflection: doubled upper half)
    and, with la_r, the G numerator L = 2 int_{S_r} U^2 la_r. With frame =
    (x0, S) (S from normalize_at; None is the origin's frame (0, I)) the
    rules sit about the origin of the frame's coordinates p, x = x0 + S p:
    FieldSampler maps their points once, U is read there and frame_factors
    evaluates the problem's own coefficients there in the frame's
    variables. Consecutive rules of at most PASS_SAMPLES samples in all
    (or one larger rule) share one FieldSampler pass."""
    sampler = FieldSampler(problem.grid, U, frame)
    chunks, size = [], PASS_SAMPLES
    for rule in rules:
        if size + rule.size > PASS_SAMPLES:
            chunks.append([])
            size = 0
        chunks[-1].append(rule)
        size += rule.size
    rows = [row for chunk in chunks for row in sampler(chunk, problem.coeff, la_r)]
    table = np.array(rows, dtype=float).reshape(len(rules), 3)
    return SphereHeights(table[:, 0], table[:, 1] if la_r else None, table[:, 2] > 0.0)


def ball_integrals(U: np.ndarray, problem: ProblemSpec, radii, nsub: int = 4) -> np.ndarray:
    """(3, len(radii)): D, B and int U f |y|^a over B_r for every radius.

    The cell densities (covered energies, cell-midpoint U^2 and U f) are
    built once per field; ball_sums integrates them for all radii. The
    last row is zero, with no U f density built, when f is zero.
    """
    grid = problem.grid
    u_avg = cell_average(grid, U)
    densities = [cell_energy_density(grid, problem, U), u_avg**2 * grid.cell_measures]
    if np.any(problem.f):
        densities.append(u_avg * cell_average(grid, problem.f) * grid.cell_measures)
    out = np.zeros((3, np.size(radii)))
    out[:len(densities)] = 2.0 * ball_sums(grid, np.stack(densities), radii, nsub=nsub)
    return out


class _SurfaceSamplers:
    """Shared machinery for surface integrals with the weight split
    g = grad_x U (carries |y|^a), w = y^a U_y (carries |y|^-a after
    squaring, |y|^0 in cross terms); each part gets the Gauss-Jacobi rule
    matching its exact weight, so the singular powers never meet a rule
    built for a different exponent."""

    def __init__(self, grid: Grid, problem: ProblemSpec, U: np.ndarray):
        self.grid = grid
        self.coeff = problem.coeff
        self.sampler = FieldSampler(grid, U)
        # grad_x U and the conjugate variable, scalar tables read at one stencil
        self._tables = ([np.gradient(U, grid.xs[d], axis=d) for d in range(grid.n)]
                        + [conjugate_variable(grid, U)])

    def rules(self, r: float):
        """Rules of weights |y|^a, 1 and |y|^-a on S_r (64 angles)."""
        a = self.grid.a
        return tuple(sphere_quadrature(self.grid, r, 64, a=e) for e in (a, 0.0, -a))

    def parts(self, rule):
        """(s, wv, nu_y, mu_t, grad_x U) at the rule's points with
        s = <B grad_x U, nu_x>; grad_x U is a list of n components. B and
        mu_t are frame_factors' in the origin's frame (0, I)."""
        grid, n = self.grid, self.grid.n
        pts = rule.points
        B, mu_t, _ = frame_factors(grid, self.coeff, pts, pts[..., :n], np.eye(n))
        stencil = locate(grid.xs + (grid.ys,), pts, even=grid.evenly_spaced)
        *gx, wv = (read(stencil, table) for table in self._tables)
        nu = pts / rule.r
        s = sum(B[..., i, j] * gx[j] * nu[..., i] for i in range(n) for j in range(n))
        return s, wv, nu[..., n], mu_t, gx


def total_energy_surface(U: np.ndarray, problem: ProblemSpec, r: float) -> float:
    """Cross-check path: I(r) = int_{S_r} U <A grad U, nu> |y|^a dsigma,
    computed as int U s |y|^a + int U w nu_y (weight-0 rule)."""
    grid = problem.grid
    ss = _SurfaceSamplers(grid, problem, U)
    rule_a, rule_0, _ = ss.rules(r)
    s_a = ss.parts(rule_a)[0]
    _, w_0, nuy_0, _, _ = ss.parts(rule_0)
    u_a, u_0 = (ss.sampler.sample(rule.points) for rule in (rule_a, rule_0))
    return 2.0 * (rule_a.integrate(u_a * s_a) + rule_0.integrate(u_0 * w_0 * nuy_0))


# ---------------------------------------------------------------------------
# psi / sigma and the frequency columns
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PsiSigma:
    psi: np.ndarray
    sigma: np.ndarray
    alpha: float
    alpha_err: float
    beta_est: float


def integrate_psi_sigma(r_grid: np.ndarray, G: np.ndarray, n: int, a: float) -> PsiSigma:
    """Integrate psi'/psi = G from r=1 inward (trapezoid); sigma = psi/r^{n-1+a}.

    If the grid stops short of 1 the tail uses the (n+a)/r default, i.e.
    psi(r_max) = r_max^{n+a}. alpha is sigma(r_min)/r_min with the error
    bar beta e^beta r_min.
    """
    r = np.asarray(r_grid, dtype=float)
    G = np.asarray(G, dtype=float)
    if r.ndim != 1 or len(r) < 2 or np.any(np.diff(r) <= 0):
        raise InvalidConfigurationError("r_grid must be strictly increasing with >= 2 points")
    # split off the exactly integrable part: log psi = (n+a) log r - int (G - (n+a)/s) ds,
    # so identity-coefficient runs (G == (n+a)/r) give psi = r^{n+a} with no
    # quadrature drift, and only the O(beta) deviation sees the trapezoid.
    dev = G - (n + a) / r
    trapezoids = 0.5 * (dev[:-1] + dev[1:]) * np.diff(r)
    # summed from r_max inward; the tail (r_max, 1] uses the (n+a)/r default exactly
    corr = np.append(-np.cumsum(trapezoids[::-1])[::-1], 0.0)
    psi = r ** (n + a) * np.exp(corr)
    if not np.all(psi > 0):
        raise SignoriniError("internal error: nonpositive psi")
    sigma = psi / r ** (n - 1 + a)
    beta_est = float(np.abs(G - (n + a) / r).max())
    alpha = float(sigma[0] / r[0])
    return PsiSigma(
        psi=psi, sigma=sigma, alpha=alpha,
        alpha_err=float(beta_est * np.exp(beta_est) * r[0]),
        beta_est=beta_est,
    )


@dataclass(frozen=True)
class SphereColumns:
    r: np.ndarray
    H: np.ndarray
    G: np.ndarray
    ps: PsiSigma
    M: np.ndarray
    N: np.ndarray
    Ntilde: np.ndarray
    mask_lambda: np.ndarray  # H > psi r^{3+delta}
    mask_gamma: np.ndarray  # H > e^{-beta} r^{3+delta+n+a}


def sphere_columns(
    r_grid: np.ndarray,
    H: np.ndarray,
    L: np.ndarray,
    n: int,
    a: float,
    Kprime: float = 0.0,
    delta: float = 0.5,
) -> SphereColumns:
    """The columns that read only the sphere sums H and L: G = L/H (the
    (n+a)/r default where H is below H_FLOOR_FACTOR max H), psi and sigma
    by integrate_psi_sigma, M = H/psi, and the adjusted frequency

    N = (sigma/2) e^{K' r^{(1-delta)/2}} d/dr log max(M, r^{3+delta}),
    Ntilde = (r/sigma) N, with np.gradient's derivative on the r grid
    (three-point inside, one-sided at the ends).
    """
    r = np.asarray(r_grid, dtype=float)
    if len(r) < 5:
        raise InvalidConfigurationError("r_grid too coarse for differencing (< 5 points)")
    if not (0.0 < delta < 1.0):
        raise InvalidConfigurationError(f"delta must lie in (0,1), got {delta}")
    if 3.0 + delta <= 3.0 - a:
        raise InvalidConfigurationError("delta must satisfy 3+delta > 3-a")
    H = np.asarray(H, dtype=float)
    h_floor = H_FLOOR_FACTOR * max(H.max(), 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        G = np.where(H > h_floor, L / np.where(H > 0, H, 1.0), (n + a) / r)
    ps = integrate_psi_sigma(r, G, n, a)
    M = H / ps.psi
    trunc = np.maximum(M, r ** (3.0 + delta))
    dlog = np.gradient(np.log(trunc), r)
    adj = np.exp(Kprime * r ** ((1.0 - delta) / 2.0))
    N = 0.5 * ps.sigma * adj * dlog
    Ntilde = r / ps.sigma * N
    mask_lambda = H > ps.psi * r ** (3.0 + delta)
    mask_gamma = H > np.exp(-ps.beta_est) * r ** (3.0 + delta + n + a)
    return SphereColumns(
        r=r, H=H, G=G, ps=ps, M=M, N=N, Ntilde=Ntilde,
        mask_lambda=mask_lambda, mask_gamma=mask_gamma,
    )


def weiss(
    r_grid: np.ndarray,
    M: np.ndarray,
    J: np.ndarray,
    ps: PsiSigma,
    a: float,
    C_weiss: float = 0.0,
) -> tuple:
    """W(r) = sigma/r^{3-a} (J - (3-a)/(2r) M) and the worst discrete drop of
    W + C r^{(1+a)/2} (nonnegative means monotone; nan for an infinite C)."""
    r = np.asarray(r_grid, dtype=float)
    W = ps.sigma / r ** (3.0 - a) * (J - (3.0 - a) / (2.0 * r) * M)
    if not np.isfinite(C_weiss):
        return W, float("nan")
    adjusted = W + C_weiss * r ** ((1.0 + a) / 2.0)
    min_step = float(np.diff(adjusted).min()) if len(r) > 1 else 0.0
    return W, min_step


# ---------------------------------------------------------------------------
# the assembled radial profile
# ---------------------------------------------------------------------------


COLUMNS = ["r", "H", "B", "D", "I", "G", "psi", "sigma", "M", "J", "Phi", "N", "Ntilde", "W"]


@dataclass
class RadialProfile:
    r: np.ndarray
    H: np.ndarray
    B: np.ndarray
    D: np.ndarray
    I: np.ndarray
    G: np.ndarray
    L: np.ndarray  # G numerator 2 int_{S_r} U^2 la_r; not a COLUMNS entry
    psi: np.ndarray
    sigma: np.ndarray
    M: np.ndarray
    J: np.ndarray
    Phi: np.ndarray
    N: np.ndarray
    Ntilde: np.ndarray
    W: np.ndarray
    mask_lambda: np.ndarray
    mask_gamma: np.ndarray
    alpha: float
    alpha_err: float
    beta_est: float
    Kprime: float
    delta: float
    C_weiss: float
    phi_margin: float  # worst drop of e^{K' r^{(1-d)/2}} Phi on the gamma mask
    weiss_margin: float  # worst drop of W + C_weiss r^{(1+a)/2}

    def summary(self) -> dict:
        return {
            "alpha": self.alpha,
            "alpha_err": self.alpha_err,
            "beta_est": self.beta_est,
            "Kprime": self.Kprime,
            "delta": self.delta,
            "C_weiss": self.C_weiss,
            "phi_monotonicity_margin": self.phi_margin,
            "weiss_monotonicity_margin": self.weiss_margin,
            "Ntilde_min_r": float(self.Ntilde[0]),
            "r_min": float(self.r[0]),
            "r_max": float(self.r[-1]),
        }


def default_r_grid(grid: Grid, count: int = 40, r_min: float | None = None,
                   r_max: float | None = None) -> np.ndarray:
    """count >= 5 geometric radii, inside [4 max(hx,hy), 0.9 R] by default;
    each has a sphere rule (r_min at least grid.resolution_floor)."""
    lo = 4.0 * max(grid.hx, grid.hy) if r_min is None else r_min
    hi = 0.9 * grid.R if r_max is None else r_max
    floor = grid.resolution_floor
    if not (count >= 5 and floor <= lo < hi <= grid.R):
        raise InvalidConfigurationError(
            f"'r_grid' needs count >= 5 and 2 max(hx, hy) = {floor} <= r_min < r_max"
            f" <= R={grid.R}, got count={count}, r_min={lo}, r_max={hi}")
    return np.geomspace(lo, hi, count)


def calibrate_constant(adjust, values_mask: np.ndarray) -> float:
    """Smallest k in {0, 0.1, ..., 2} making adjust(k) nondecreasing on the
    mask up to 1% of its range; inf if none works."""
    base = adjust(0.0)[values_mask]
    rng = float(base.max() - base.min()) if len(base) else 0.0
    for k in np.arange(0.0, 2.0001, 0.1):
        v = adjust(float(k))[values_mask]
        if len(v) < 2 or np.diff(v).min() >= -0.01 * max(rng, 1e-300):
            return float(k)
    return float("inf")


def radial_profile(
    U: np.ndarray,
    problem: ProblemSpec,
    r_grid: np.ndarray | None = None,
    Kprime="calibrate",
    delta: float = 0.5,
    C_weiss="calibrate",
    n_angles: int = 64,
    nsub: int = 4,
) -> RadialProfile:
    """Compute every radial column on one r grid.

    Kprime / C_weiss: numeric values are used as-is ('calibrate' = 0 for
    identity coefficients, calibrate_constant otherwise); any other
    string is an InvalidConfigurationError.
    """
    for name, value in (("Kprime", Kprime), ("C_weiss", C_weiss)):
        if isinstance(value, str) and value != "calibrate":
            raise InvalidConfigurationError(
                f"{name} must be a number or 'calibrate', got {value!r}")
    grid = problem.grid
    a = grid.a
    if r_grid is None:
        r_grid = default_r_grid(grid)
    r = np.asarray(r_grid, dtype=float)
    rules = [sphere_quadrature(grid, ri, n_angles=n_angles) for ri in r]
    Hs, Ls, _ = sphere_heights(U, problem, rules, la_r=True)
    Ds, Bs, Fs = ball_integrals(U, problem, r, nsub)
    Is = Ds + Fs

    sph0 = sphere_columns(r, Hs, Ls, grid.n, a, Kprime=0.0, delta=delta)
    ps = sph0.ps
    J = Is / ps.psi
    with np.errstate(divide="ignore", invalid="ignore"):
        Phi = ps.sigma * J / sph0.M

    identity_coeff = problem.coeff.is_identity
    kp = 0.0 if (Kprime == "calibrate" and identity_coeff) else Kprime
    if kp == "calibrate":
        def adj(k):
            return np.exp(k * r ** ((1.0 - delta) / 2.0)) * Phi
        kp = calibrate_constant(adj, sph0.mask_gamma)
    kp = float(kp)
    sph = sph0 if kp == 0.0 else sphere_columns(r, Hs, Ls, grid.n, a, Kprime=kp, delta=delta)

    # an infinite K' (calibration failed) leaves no margin to report
    phi_margin = float("nan")
    if np.isfinite(kp):
        masked = (np.exp(kp * r ** ((1.0 - delta) / 2.0)) * Phi)[sph.mask_gamma]
        phi_margin = float(np.diff(masked).min()) if len(masked) > 1 else 0.0

    cw = 0.0 if (C_weiss == "calibrate" and identity_coeff) else C_weiss
    if cw == "calibrate":
        def adjw(c):
            W0, _ = weiss(r, sph.M, J, ps, a, C_weiss=0.0)
            return W0 + c * r ** ((1.0 + a) / 2.0)
        cw = calibrate_constant(adjw, np.ones(len(r), dtype=bool))
    cw = float(cw)
    W, weiss_margin = weiss(r, sph.M, J, ps, a, C_weiss=cw)

    return RadialProfile(
        r=r, H=Hs, B=Bs, D=Ds, I=Is, G=sph.G, L=Ls, psi=ps.psi, sigma=ps.sigma,
        M=sph.M, J=J, Phi=Phi, N=sph.N, Ntilde=sph.Ntilde, W=W,
        mask_lambda=sph.mask_lambda, mask_gamma=sph.mask_gamma,
        alpha=ps.alpha, alpha_err=ps.alpha_err, beta_est=ps.beta_est,
        Kprime=kp, delta=delta, C_weiss=cw,
        phi_margin=phi_margin, weiss_margin=weiss_margin,
    )


# ---------------------------------------------------------------------------
# identity checks
# ---------------------------------------------------------------------------


def identity_checks(U: np.ndarray, problem: ProblemSpec, profile: RadialProfile) -> dict:
    """Relative errors of the first-variation identities and the trace
    inequalities, checked on the columns H, L, D, B and I of the field's
    radial profile (built with the default 64 angles).

    The radii are the profile's radii in [0.2 R, 0.8 R], or all of them
    when fewer than 3 lie there. Only H(r +- dr), in one sphere_heights
    call, and the surface terms of (ii) are evaluated here.
    (i)  H'(r) vs 2 I(r) + int_{S_r} U^2 la_r   (H' by a small step)
    (ii) for A=I, f=0: D'(r) vs 2 int (U_nu)^2 |y|^a + (n-1+a)/r D(r),
         with D'(r) evaluated by the coarea form int_{S_r} |grad U|^2 |y|^a
    (iii) smallest constants C in H <= C (B/r + r D), B/r <= C (H + r D).
    """
    grid = problem.grid
    a = grid.a
    sel = (profile.r >= 0.2 * grid.R) & (profile.r <= 0.8 * grid.R)
    if np.count_nonzero(sel) < 3:
        sel = np.ones_like(sel)
    r_grid, Hs, Ls, Ds, Bs, Is = (getattr(profile, c)[sel] for c in ("r", "H", "L", "D", "B", "I"))

    # H' by a small central step, one-sided (from r) at the resolution
    # floor and at R; the heights at r + dr and r - dr come from one call
    dr = np.minimum(1e-3 * grid.R, 0.05 * r_grid)
    up = r_grid + dr <= grid.R
    down = r_grid - dr > grid.resolution_floor
    radii = np.concatenate([r_grid[up] + dr[up], r_grid[down] - dr[down]])
    rules = [sphere_quadrature(grid, ri) for ri in radii]
    H = sphere_heights(U, problem, rules).H
    H_hi, H_lo = Hs.copy(), Hs.copy()
    H_hi[up] = H[:np.count_nonzero(up)]
    H_lo[down] = H[np.count_nonzero(up):]
    Hp = (H_hi - H_lo) / np.where(up & down, 2.0 * dr, dr)
    rhs = 2.0 * Is + Ls
    rel_i = np.abs(Hp - rhs) / np.maximum(np.abs(rhs), 1e-300)
    rel_ii = []
    if problem.coeff.is_identity and np.abs(problem.f).max() == 0.0:
        ss = _SurfaceSamplers(grid, problem, U)
        for ri, Di in zip(r_grid, Ds):
            # each surface term split by its exact weight: grad_x parts
            # carry |y|^a, conjugate-variable squares |y|^{-a}, crosses 1
            rule_a, rule_0, rule_m = ss.rules(ri)
            s_a, w_a, nuy_a, mt_a, gx_a = ss.parts(rule_a)
            s_0, w_0, nuy_0, mt_0, _ = ss.parts(rule_0)
            s_m, w_m, nuy_m, mt_m, _ = ss.parts(rule_m)
            lhs = 2.0 * (rule_a.integrate(sum(g**2 for g in gx_a)) + rule_m.integrate(w_m**2))
            flux_sq = (
                rule_a.integrate(s_a**2 / mt_a)
                + 2.0 * rule_0.integrate(s_0 * w_0 * nuy_0 / mt_0)
                + rule_m.integrate(w_m**2 * nuy_m**2 / mt_m)
            )
            rhs2 = 4.0 * flux_sq + (grid.n - 1 + a) / ri * Di
            rel_ii.append(abs(lhs - rhs2) / max(abs(rhs2), 1e-300))

    if Hs.max() == 0.0 and Bs.max() == 0.0:
        c1 = c2 = 0.0
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            c1 = np.nanmax(Hs / (Bs / r_grid + r_grid * Ds))
            c2 = np.nanmax((Bs / r_grid) / (Hs + r_grid * Ds))
    return {
        "r": r_grid,
        "height_derivative_rel": rel_i,
        "rellich_rel": np.array(rel_ii) if rel_ii else None,
        "trace_C1": float(c1),
        "trace_C2": float(c2),
    }


def surface_cross_check(U: np.ndarray, problem: ProblemSpec, profile: RadialProfile) -> dict:
    """The profile's solid total energy I against its surface evaluation,
    at the profile's middle radius r[len // 2] (a radius nearest the
    median)."""
    k = len(profile.r) // 2
    r = float(profile.r[k])
    solid = float(profile.I[k])
    surf = total_energy_surface(U, problem, r)
    return {
        "r": r,
        "solid": solid,
        "surface": surf,
        "rel": abs(solid - surf) / max(abs(solid), 1e-300),
    }


# ---------------------------------------------------------------------------
# decay diagnostics
# ---------------------------------------------------------------------------


def loglog_slope(r_grid: np.ndarray, values: np.ndarray, floor: float) -> float:
    """Least-squares slope of log values (floored at 1e-300) against log r;
    inf when no value exceeds floor (the quantity vanishes at every r)."""
    if values.max() <= floor:
        return float("inf")
    return float(np.polyfit(np.log(r_grid), np.log(np.maximum(values, 1e-300)), 1)[0])


def _ball_fit(grid: Grid, x0, V: np.ndarray, basis: np.ndarray, exponent: float,
              r_grid: np.ndarray) -> tuple:
    """Weighted least-squares fit of V by b * basis on every node ball
    |X - (x0, 0)| <= rho, with the lumped |y|^exponent node weights:
    (b, minimized residual) per rho; b = 0 where the basis has no mass."""
    masses = grid.lumped_node_weights(exponent=exponent)
    radii = grid.node_radii(x0)
    bs, residuals = np.empty(len(r_grid)), np.empty(len(r_grid))
    for i, rho in enumerate(r_grid):
        sel = radii <= rho
        m, v, p = masses[sel], V[sel], basis[sel]
        denom = float((p**2 * m).sum())
        bs[i] = float((v * p * m).sum() / denom) if denom > 0 else 0.0
        residuals[i] = float(((v - bs[i] * p) ** 2 * m).sum())
    return bs, residuals


def oscillation_decay(U: np.ndarray, problem: ProblemSpec, x0, r_grid: np.ndarray) -> dict:
    """Fitted slope of log int_{B_rho^+(x0)} (w - <w>_rho)^2 y^{-a} vs log rho
    where w = y^a U_y and <.>_rho is the y^{-a} dX-weighted ball average
    (the ball fit of w by a constant).

    Slopes above n+1-a indicate Hoelder decay of the conjugate variable.
    """
    grid = problem.grid
    r_grid = np.asarray(r_grid, dtype=float)
    if len(r_grid) < 4:
        raise InsufficientDataError("need at least 4 radii for the oscillation fit")
    w = conjugate_variable(grid, U)
    _, vals = _ball_fit(grid, x0, w, np.broadcast_to(1.0, grid.node_shape), -grid.a, r_grid)
    floor = 1e-28 * max(np.abs(w).max(), 1.0) ** 2
    return {"slope": loglog_slope(r_grid, vals, floor), "values": vals, "r": r_grid}


def campanato_decay(V: np.ndarray, grid: Grid, x0, r_grid: np.ndarray) -> dict:
    """Least-squares fit of V by b * y^{1-a} in weighted balls around x0.

    For each radius, b minimizes sum (V_i - b y_i^{1-a})^2 over nodes in
    B_r^+(x0) with lumped y^a weights (a discrete quadrature of the
    weighted L2 projection, exact when V is the ansatz at the nodes).
    Returns the log-log slope of the minimized residual, the target
    exponent n+1+a+2(1+beta) with beta = 1/2, and b at the smallest radius.
    """
    a = grid.a
    V = np.asarray(V, dtype=float)
    r_grid = np.asarray(r_grid, dtype=float)
    if len(r_grid) < 4:
        raise InsufficientDataError("need at least 4 radii for the decay fit")
    ypow = np.broadcast_to(grid.ys ** (1.0 - a), grid.node_shape)
    bs, residuals = _ball_fit(grid, x0, V, ypow, a, r_grid)
    floor = 1e-28 * max(np.abs(V).max(), 1.0) ** 2
    return {
        "slope": loglog_slope(r_grid, residuals, floor),
        "target": grid.n + 1 + a + 2.0 * (1.0 + 0.5),
        "b": float(bs[0]),
        "residuals": residuals,
        "r": r_grid,
    }
