"""Radial functionals of a solved field: height, mass, energy, generalized
frequency, and the adjusted monotone quantities. radial_profile computes
the sphere and ball sums of a field once; the identity checks and the
energy cross-check read its columns. sphere_columns turns the sphere sums
H and L into G, psi, M and Ntilde, for radial_profile and for the
free-boundary classification alike.

All ball/sphere integrals treat the field as evenly reflected across the
thin plane: upper-half quadratures are doubled. The weight |y|^a is
carried exactly by the sphere rules and the cell measures.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidConfigurationError, InsufficientDataError, SignoriniError
from .coefficients import CoefficientField, ProblemSpec
from .grid import Grid, ball_sums, interpolate, sphere_quadrature
from .operator import cell_average, cell_energy_density, neumann_trace


# ---------------------------------------------------------------------------
# geometry fields
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeometryFields:
    """Point evaluators of B, mu~ = <A X, X>/|X|^2 and la_r / |y|^a, where
    mu = mu~ |y|^a and la_r = div(|y|^a A grad |X|); a is the grid's."""

    grid: Grid
    coeff: CoefficientField

    @cached_property
    def _db_table(self) -> np.ndarray:
        """Central differences d_i b_ij of the thin-node table, (..., i, j)."""
        table, xs = self.coeff.table, self.grid.xs
        return np.stack([np.gradient(table[..., i, :], xs[i], axis=i)
                         for i in range(self.grid.n)], axis=-2)

    def quadratic_at(self, points: np.ndarray) -> tuple:
        """(x, B(x), <A X, X>, |X|^2, mu~) at the points X = (x, y), with
        <A X, X> = <B x, x> + y^2 and mu~ = <A X, X>/|X|^2."""
        pts = np.asarray(points, dtype=float)
        n = self.grid.n
        x = pts[..., :n]
        B = self.coeff.eval_B(x)
        y2 = pts[..., n] ** 2
        axx = np.einsum("...ij,...i,...j->...", B, x, x) + y2
        r2 = (x**2).sum(axis=-1) + y2
        return x, B, axx, r2, axx / r2

    def mu_tilde_at(self, points: np.ndarray) -> np.ndarray:
        """mu~ = <A X, X>/|X|^2, with A evaluated at the points X themselves."""
        return self.quadratic_at(points)[4]

    def mu_tilde_and_la_r_at(self, points: np.ndarray) -> tuple:
        """(mu~, la_r / |y|^a) from one evaluation of B; la_r =
        div(|y|^a A grad |X|)."""
        x, B, axx, r2, mu = self.quadratic_at(points)
        r = np.sqrt(r2)
        trB = np.trace(B, axis1=-2, axis2=-1)
        dbx = np.einsum("...ij,...j->...", interpolate(self.grid.xs, self._db_table, x), x)
        return mu, (trB + 1.0 + self.grid.a) / r - axx / r**3 + dbx / r


# ---------------------------------------------------------------------------
# field sampling (thin-layer aware)
# ---------------------------------------------------------------------------


class FieldSampler:
    """Samples a node field off the nodes by grid.interpolate; inside the
    first y-layer the y profile uses the (1, y^{1-a}) basis so fields with
    the natural singular expansion are sampled without the O(h^{1-a}) bias
    of a linear interpolant (multilinear at a=0).

    With frame = (x0, S) (normalize_at's S) the points p are coordinates
    normalised at x0, and U is sampled at (x0 + S p_x, p_y). Thin
    coordinates outside the box are clamped to it."""

    def __init__(self, grid: Grid, U: np.ndarray, frame=None):
        self.grid = grid
        self._U = np.asarray(U, dtype=float)
        self.frame = frame

    def _mapped(self, points: np.ndarray) -> np.ndarray:
        """The points in the field's coordinates, before the clamp."""
        pts = np.array(points, dtype=float, ndmin=2)
        if self.frame is not None:
            x0, S = self.frame
            pts[..., : self.grid.n] = x0 + pts[..., : self.grid.n] @ S.T
        return pts

    def clamped(self, points: np.ndarray) -> bool:
        """Whether any sample at the points is clamped to the box."""
        return bool((np.abs(self._mapped(points)[..., : self.grid.n]) > self.grid.R).any())

    def __call__(self, points: np.ndarray) -> np.ndarray:
        pts = self._mapped(points)
        n, R = self.grid.n, self.grid.R
        pts[..., :n] = np.clip(pts[..., :n], -R, R)
        return interpolate(self.grid.xs + (self.grid.ys,), self._U, pts,
                           first_layer_power=1.0 - self.grid.a)


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


def sphere_heights(U: np.ndarray, geo: GeometryFields, rules, la_r: bool = False,
                   frame=None) -> tuple:
    """(H, L) per rule: H = 2 int_{S_r} U^2 mu~ |y|^a on the sphere about
    the origin (even reflection: doubled upper half) and, with la_r, the G
    numerator L = 2 int_{S_r} U^2 la_r; L is None without la_r. With
    frame = (x0, S) the rules sit about the origin of the coordinates
    normalised at x0, geo holds normalize_at's coefficients, and U is
    sampled through FieldSampler's frame."""
    sampler = FieldSampler(geo.grid, U, frame)
    H = np.empty(len(rules))
    L = np.empty(len(rules)) if la_r else None
    for i, rule in enumerate(rules):
        u2 = sampler(rule.points) ** 2
        if la_r:
            mut, lar = geo.mu_tilde_and_la_r_at(rule.points)
            L[i] = 2.0 * rule.integrate(u2 * lar)
        else:
            mut = geo.mu_tilde_at(rule.points)
        H[i] = 2.0 * rule.integrate(u2 * mut)
    return H, L


def ball_integrals(U: np.ndarray, problem: ProblemSpec, radii, nsub: int = 4) -> np.ndarray:
    """(3, len(radii)): D, B and int U f |y|^a over B_r for every radius.

    The cell densities (covered energies, cell-midpoint U^2 and U f) are
    built once per field; ball_sums integrates them for all radii.
    """
    grid = problem.grid
    u_avg = cell_average(grid, U)
    densities = np.stack([
        cell_energy_density(grid, problem, U),
        u_avg**2 * grid.cell_measures,
        u_avg * cell_average(grid, problem.f) * grid.cell_measures,
    ])
    return 2.0 * ball_sums(grid, densities, radii, nsub=nsub)


class _SurfaceSamplers:
    """Shared machinery for surface integrals with the weight split
    g = grad_x U (carries |y|^a), w = y^a U_y (carries |y|^-a after
    squaring, |y|^0 in cross terms); each part gets the Gauss-Jacobi rule
    matching its exact weight, so the singular powers never meet a rule
    built for a different exponent."""

    def __init__(self, grid: Grid, problem: ProblemSpec, U: np.ndarray):
        self.grid = grid
        self.geo = GeometryFields(grid, problem.coeff)
        self.sampler = FieldSampler(grid, U)
        # grad_x U and the conjugate variable, stacked on a trailing axis
        self._table = np.stack(
            [np.gradient(U, grid.xs[d], axis=d) for d in range(grid.n)]
            + [conjugate_variable(grid, U)], axis=-1,
        )

    def rules(self, r: float):
        """Rules of weights |y|^a, 1 and |y|^-a on S_r (64 angles)."""
        a = self.grid.a
        return tuple(sphere_quadrature(self.grid, r, 64, a=e) for e in (a, 0.0, -a))

    def parts(self, rule):
        """(s, wv, nu_y, mu_t, u, grad_x U) at the rule's points with
        s = <B grad_x U, nu_x>."""
        pts = rule.points
        n = self.grid.n
        _, B, _, _, mu_t = self.geo.quadratic_at(pts)
        gw = interpolate(self.grid.xs + (self.grid.ys,), self._table, pts)
        gx, wv = gw[..., :n], gw[..., n]
        nu = pts / rule.r
        s = np.einsum("...ij,...j,...i->...", B, gx, nu[..., :n])
        return s, wv, nu[..., n], mu_t, self.sampler(pts), gx


def total_energy_surface(U: np.ndarray, problem: ProblemSpec, r: float) -> float:
    """Cross-check path: I(r) = int_{S_r} U <A grad U, nu> |y|^a dsigma,
    computed as int U s |y|^a + int U w nu_y (weight-0 rule)."""
    grid = problem.grid
    ss = _SurfaceSamplers(grid, problem, U)
    rule_a, rule_0, _ = ss.rules(r)
    s_a, w_a, nuy_a, _, u_a, _ = ss.parts(rule_a)
    s_0, w_0, nuy_0, _, u_0, _ = ss.parts(rule_0)
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
    """count >= 5 geometric radii, inside [4 max(hx,hy), 0.9 R] by default."""
    lo = 4.0 * max(grid.hx, grid.hy) if r_min is None else r_min
    hi = 0.9 * grid.R if r_max is None else r_max
    if not (count >= 5 and 0 < lo < hi <= grid.R):
        raise InvalidConfigurationError(
            f"'r_grid' needs count >= 5 and 0 < r_min < r_max <= R={grid.R},"
            f" got count={count}, r_min={lo}, r_max={hi}")
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
    Hs, Ls = sphere_heights(U, GeometryFields(grid, problem.coeff), rules, la_r=True)
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
    when fewer than 3 lie there. Only H(r +- dr) and the surface terms of
    (ii) are evaluated here.
    (i)  H'(r) vs 2 I(r) + int_{S_r} U^2 la_r   (H' by small central step)
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
    geo = GeometryFields(grid, problem.coeff)

    def heights(radii):
        rules = [sphere_quadrature(grid, ri) for ri in radii]
        return sphere_heights(U, geo, rules)[0]

    # H' by a small central step, one-sided at the resolution floor
    dr = np.minimum(1e-3 * grid.R, 0.05 * r_grid)
    central = r_grid - dr > 2.0 * max(grid.hx, grid.hy)
    H_lo = Hs.copy()
    H_lo[central] = heights(r_grid[central] - dr[central])
    Hp = (heights(r_grid + dr) - H_lo) / np.where(central, 2.0 * dr, dr)
    rhs = 2.0 * Is + Ls
    rel_i = np.abs(Hp - rhs) / np.maximum(np.abs(rhs), 1e-300)
    rel_ii = []
    if problem.coeff.is_identity and np.abs(problem.f).max() == 0.0:
        ss = _SurfaceSamplers(grid, problem, U)
        for ri, Di in zip(r_grid, Ds):
            # each surface term split by its exact weight: grad_x parts
            # carry |y|^a, conjugate-variable squares |y|^{-a}, crosses 1
            rule_a, rule_0, rule_m = ss.rules(ri)
            s_a, w_a, nuy_a, mt_a, _, gx_a = ss.parts(rule_a)
            s_0, w_0, nuy_0, mt_0, _, _ = ss.parts(rule_0)
            s_m, w_m, nuy_m, mt_m, _, _ = ss.parts(rule_m)
            lhs = 2.0 * (
                rule_a.integrate((gx_a**2).sum(axis=-1)) + rule_m.integrate(w_m**2)
            )
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
