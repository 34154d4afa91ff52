"""Tensor-product discretization of the upper half box [-R,R]^n x [0,R].

The extension direction carries the degenerate weight |y|^a, a in (-1,1).
All per-cell weighted volumes are computed from the closed-form
antiderivative of y^a (never by evaluating y^a at y=0), so the weight is
handled exactly down to the thin set.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from scipy.special import roots_jacobi

from .errors import InvalidConfigurationError, UnsupportedRadiusError


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def corner_offsets(n: int) -> list:
    """The 2^{n+1} cell-corner offsets in {0,1}^{n+1}, y offset last."""
    return list(itertools.product((0, 1), repeat=n + 1))


def _weighted_layer_integrals(ys: np.ndarray, a: float) -> np.ndarray:
    """Exact values of int_{y_j}^{y_{j+1}} y^a dy for each layer."""
    return (ys[1:] ** (1.0 + a) - ys[:-1] ** (1.0 + a)) / (1.0 + a)


def _layer_transmissibilities(ys: np.ndarray, a: float) -> np.ndarray:
    """Per-layer coefficients (1-a)/(y_{j+1}^{1-a} - y_j^{1-a}).

    These are the exact two-point stiffnesses of the 1D operator
    (y^a u')' on each layer: they reproduce the flux of any element of
    span{1, y^{1-a}} without error, which is what keeps the scheme
    consistent up to the degenerate axis. For a=0 they reduce to 1/hy.
    """
    if a == 0.0:
        return 1.0 / (ys[1:] - ys[:-1])
    return (1.0 - a) / (ys[1:] ** (1.0 - a) - ys[:-1] ** (1.0 - a))


@dataclass(frozen=True)
class Grid:
    """Immutable tensor grid over [-R,R]^n x [0,R] with weighted measures."""

    n: int
    R: float
    a: float
    hx: float
    hy: float
    xs: tuple  # n arrays of thin-node coordinates
    ys: np.ndarray  # extension nodes, ys[0] = 0
    cell_y_weights: np.ndarray  # exact int y^a per layer
    cell_y_trans: np.ndarray  # kernel-exact layer transmissibilities

    # -- shapes ---------------------------------------------------------
    @property
    def node_shape(self) -> tuple:
        return tuple(len(x) for x in self.xs) + (len(self.ys),)

    @property
    def cell_shape(self) -> tuple:
        return tuple(len(x) - 1 for x in self.xs) + (len(self.ys) - 1,)

    @property
    def n_nodes(self) -> int:
        return int(np.prod(self.node_shape))

    @property
    def thin_cell_area(self) -> float:
        return self.hx**self.n

    # -- node coordinate fields -----------------------------------------
    def node_mesh(self) -> tuple:
        """Meshgrid of node coordinates, thin axes first, y last."""
        return np.meshgrid(*self.xs, self.ys, indexing="ij")

    def node_radii(self, x0=None) -> np.ndarray:
        """|X - (x0, 0)| at every node, from the open mesh of the axes."""
        x0 = np.zeros(self.n) if x0 is None else np.atleast_1d(np.asarray(x0, dtype=float))
        axes = np.ix_(*self.xs, self.ys)
        sq = sum((axes[d] - x0[d]) ** 2 for d in range(self.n)) + axes[-1] ** 2
        return np.sqrt(sq)

    @property
    def cell_measures(self) -> np.ndarray:
        """Exact int_cell y^a dX for every cell."""
        base = self.thin_cell_area * self.cell_y_weights
        return np.broadcast_to(base, self.cell_shape).copy()

    def cell_centers(self) -> tuple:
        axes = [0.5 * (x[:-1] + x[1:]) for x in self.xs]
        axes.append(0.5 * (self.ys[:-1] + self.ys[1:]))
        return np.meshgrid(*axes, indexing="ij")

    @cached_property
    def cell_corners(self) -> np.ndarray:
        """(n_cells, 2^{n+1}) flat node indices of each cell's corners, in
        the order of corner_offsets(n); built once per grid, read-only."""
        base = np.meshgrid(*[np.arange(s) for s in self.cell_shape], indexing="ij")
        cols = []
        for c in corner_offsets(self.n):
            idx = tuple(base[d] + c[d] for d in range(self.n + 1))
            cols.append(np.ravel_multi_index(idx, self.node_shape).ravel())
        return _read_only(np.stack(cols, axis=1))

    @cached_property
    def _cells_by_radius(self) -> tuple:
        """(order, dist, centers): flat cell indices sorted by the distance
        of their centres to the origin, those distances, and the centres
        (n_cells, n+1) in the same order. Read-only."""
        dist = _cell_distances(self).ravel()
        order = np.argsort(dist, kind="stable")
        centers = np.stack([c.ravel()[order] for c in self.cell_centers()], axis=-1)
        return _read_only(order), _read_only(dist[order]), _read_only(centers)

    # -- node masks -------------------------------------------------------
    @property
    def thin_mask(self) -> np.ndarray:
        m = np.zeros(self.node_shape, dtype=bool)
        m[..., 0] = True
        return m

    @property
    def dirichlet_mask(self) -> np.ndarray:
        """Outer box boundary: lateral sides and the top y = R."""
        m = np.zeros(self.node_shape, dtype=bool)
        for d in range(self.n):
            sl = [slice(None)] * (self.n + 1)
            sl[d] = 0
            m[tuple(sl)] = True
            sl[d] = -1
            m[tuple(sl)] = True
        m[..., -1] = True
        return m

    def thin_weighted(self, w: np.ndarray) -> np.ndarray:
        """w times the trapezoid weights of the thin axes (hx inside, hx/2
        at the ends), multiplied in axis by axis; the leading axes of w are
        the thin axes. thin_weighted(ones(thin shape)) are the thin node
        areas int phi_i dx."""
        for d in range(self.n):
            wx = np.full(len(self.xs[d]), self.hx)
            wx[0] = wx[-1] = self.hx / 2.0
            shape = [1] * w.ndim
            shape[d] = len(wx)
            w = w * wx.reshape(shape)
        return w

    def lumped_node_weights(self, exponent: float | None = None) -> np.ndarray:
        """Node quadrature weights for int f |y|^e dX by equal cell splitting.

        exponent defaults to the grid weight a; pass -a for conjugate-weight
        integrals. Exact antiderivatives per layer, then each cell's weight
        is split evenly among its 2^(n+1) corners.
        """
        e = self.a if exponent is None else exponent
        layer = _weighted_layer_integrals(self.ys, e)
        wy = np.zeros(len(self.ys))
        wy[:-1] += layer / 2.0
        wy[1:] += layer / 2.0
        return self.thin_weighted(np.broadcast_to(wy, self.node_shape))


def build_grid(n: int, R: float, hx: float, hy: float, a: float) -> Grid:
    """Build the half-box grid with exact per-cell weighted measures.

    Node spacings are snapped so that the box is covered exactly and x=0
    is a node in every thin direction.
    """
    if n not in (1, 2):
        raise InvalidConfigurationError(f"thin dimension n must be 1 or 2, got {n}")
    for name, v in (("R", R), ("hx", hx), ("hy", hy), ("a", a)):
        if not np.isfinite(v):
            raise InvalidConfigurationError(f"parameter {name} must be finite, got {v}")
    if R <= 0:
        raise InvalidConfigurationError(f"R must be positive, got {R}")
    if not (0 < hx < R and 0 < hy < R):
        raise InvalidConfigurationError(f"spacings must lie in (0, R), got hx={hx}, hy={hy}")
    if not (-1.0 < a < 1.0):
        raise InvalidConfigurationError(f"weight exponent a must lie in (-1, 1), got {a}")

    nx_half = max(1, round(R / hx))
    my = max(1, round(R / hy))
    hx_eff = R / nx_half
    hy_eff = R / my
    ax = -R + hx_eff * np.arange(2 * nx_half + 1)
    ys = hy_eff * np.arange(my + 1)
    xs = tuple(ax.copy() for _ in range(n))
    return Grid(
        n=n,
        R=float(R),
        a=float(a),
        hx=float(hx_eff),
        hy=float(hy_eff),
        xs=xs,
        ys=ys,
        cell_y_weights=_weighted_layer_integrals(ys, a),
        cell_y_trans=_layer_transmissibilities(ys, a),
    )


def total_weighted_measure(grid: Grid) -> float:
    """Closed form int_box y^a dX = (2R)^n R^{1+a}/(1+a)."""
    return (2.0 * grid.R) ** grid.n * grid.R ** (1.0 + grid.a) / (1.0 + grid.a)


# ---------------------------------------------------------------------------
# off-node sampling
# ---------------------------------------------------------------------------


def interpolate(axes, values, points, first_layer_power: float | None = None) -> np.ndarray:
    """Multilinear interpolation of a tensor-grid table at arbitrary points.

    values has shape tuple(len(ax) for ax in axes) + trailing and points
    (..., len(axes)); the result has shape points.shape[:-1] + trailing.
    Cells are found by searchsorted on the axis arrays and the cell index
    is clamped, so points outside the box extrapolate linearly from the
    boundary cell. With first_layer_power=p the local coordinate t in
    [0, 1) of the last axis's first cell becomes t**p; p = 1-a gives the
    first-layer profile u0 + (u1 - u0) (y/y1)^{1-a}, exact on the
    (1, y^{1-a}) basis.
    """
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


# ---------------------------------------------------------------------------
# sphere quadrature
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SphereRule:
    """Quadrature on the upper half sphere of radius r.

    Applying the rule to nodal samples of g returns
    int_{S_r^+} g |y|^a dsigma; callers double the result for evenly
    reflected fields.
    """

    r: float
    points: np.ndarray  # (m, n+1) coordinates
    weights: np.ndarray  # (m,) includes surface measure and |y|^a

    def integrate(self, values: np.ndarray) -> float:
        return float(np.dot(self.weights, values))


def _check_radius(grid: Grid, r: float) -> None:
    if not (0 < r <= grid.R):
        raise UnsupportedRadiusError(f"radius {r} outside (0, R={grid.R}]")


@lru_cache(maxsize=32)
def _unit_sphere_rule(n: int, n_angles: int, a: float) -> tuple:
    """Read-only (points, weights) of the rule on the unit half sphere."""
    if n == 1:
        t, w = roots_jacobi(n_angles, (a - 1.0) / 2.0, (a - 1.0) / 2.0)
        theta = np.arccos(t)
        return _read_only(np.column_stack([np.cos(theta), np.sin(theta)])), _read_only(w)
    # n == 2: y = u with u in (0,1], thin radius sqrt(1-u^2)
    t, w = roots_jacobi(n_angles, 0.0, a)
    u = (t + 1.0) / 2.0
    wu = w * 2.0 ** (-(a + 1.0))
    lam = 2.0 * np.pi * np.arange(n_angles) / n_angles
    wl = np.full(n_angles, 2.0 * np.pi / n_angles)
    U, L = np.meshgrid(u, lam, indexing="ij")
    WU, WL = np.meshgrid(wu, wl, indexing="ij")
    s = np.sqrt(np.clip(1.0 - U**2, 0.0, None))
    pts = np.column_stack([(s * np.cos(L)).ravel(), (s * np.sin(L)).ravel(), U.ravel()])
    return _read_only(pts), _read_only((WU * WL).ravel())


def sphere_quadrature(grid: Grid, r: float, n_angles: int = 64, a: float | None = None) -> SphereRule:
    """Gauss-Jacobi rule absorbing the (sin theta)^a weight exactly.

    n=1: theta in (0,pi) with t = cos(theta); the measure
    (sin theta)^a dtheta becomes the Jacobi weight (1-t^2)^{(a-1)/2} dt.
    n=2: tensor of a periodic trapezoid in azimuth with a Gauss-Jacobi
    rule in u = cos(polar) carrying the u^a weight.
    The unit rule is built once per (n, n_angles, a) and scaled by r;
    the returned arrays are read-only.
    """
    if a is None:
        a = grid.a
    if n_angles < 8:
        raise InvalidConfigurationError(f"n_angles must be >= 8, got {n_angles}")
    _check_radius(grid, r)
    if r < 2.0 * max(grid.hx, grid.hy):
        raise UnsupportedRadiusError(
            f"radius {r} below resolution floor 2*max(hx,hy)={2*max(grid.hx,grid.hy)}"
        )
    pts, wts = _unit_sphere_rule(grid.n, int(n_angles), float(a))
    return SphereRule(
        r=float(r),
        points=_read_only(pts * r),
        weights=_read_only(wts * r ** (grid.n + a)),
    )


def halfsphere_weighted_area(n: int, r: float, a: float) -> float:
    """Closed form int_{S_r^+} |y|^a dsigma."""
    if n == 1:
        from scipy.special import gamma

        # int_0^pi (sin t)^a dt = sqrt(pi) Gamma((a+1)/2) / Gamma(a/2+1)
        return r ** (1.0 + a) * np.sqrt(np.pi) * gamma((a + 1.0) / 2.0) / gamma(a / 2.0 + 1.0)
    return 2.0 * np.pi * r ** (2.0 + a) / (1.0 + a)


# ---------------------------------------------------------------------------
# ball coverage
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BallCells:
    """Cells meeting the upper half ball, with coverage fractions in [0,1]."""

    r: float
    indices: tuple  # arrays of cell multi-indices
    fractions: np.ndarray

    def coverage_field(self, cell_shape: tuple) -> np.ndarray:
        cov = np.zeros(cell_shape)
        cov[self.indices] = self.fractions
        return cov


def _half_diagonal(grid: Grid) -> float:
    return 0.5 * np.sqrt(grid.n * grid.hx**2 + grid.hy**2)


def _cell_distances(grid: Grid) -> np.ndarray:
    """|cell centre| over the cell grid."""
    return np.sqrt(sum(c**2 for c in grid.cell_centers()))


def _coverage(grid: Grid, centers: np.ndarray, r: float, nsub: int) -> np.ndarray:
    """Fraction of each cell (centres (m, n+1)) inside |X| <= r, from a
    fixed nsub^(n+1)-point midpoint subsample per cell."""
    fr = (np.arange(nsub) + 0.5) / nsub - 0.5
    m = len(centers)
    r2 = 0.0
    for d in range(grid.n + 1):
        h = grid.hy if d == grid.n else grid.hx
        shape = [m] + [1] * (grid.n + 1)
        shape[d + 1] = nsub
        r2 = r2 + ((centers[:, d, None] + fr * h) ** 2).reshape(shape)
    inside = (r2 <= r * r).reshape(m, -1)
    return np.count_nonzero(inside, axis=1) / inside.shape[1]


def ball_cells(grid: Grid, r: float, nsub: int = 4) -> BallCells:
    """Cells intersecting B_r^+ about the origin with subsampled coverage
    fractions.

    Coverage uses a fixed nsub^(n+1)-point midpoint subsample per
    straddling cell (nsub=4 by default); interior cells get fraction 1
    from a bounding-sphere test without subsampling. ball_sums is the
    all-radii form of the same rule.
    """
    _check_radius(grid, r)
    dist = _cell_distances(grid)
    half_diag = _half_diagonal(grid)
    idx_in = np.where(dist <= r - half_diag)
    idx_sh = np.where((dist > r - half_diag) & (dist < r + half_diag))
    centers = grid.cell_centers()
    sh_centers = np.stack([centers[d][idx_sh] for d in range(grid.n + 1)], axis=-1)
    fr_sh = _coverage(grid, sh_centers, r, nsub)
    keep = fr_sh > 0.0
    indices = tuple(
        np.concatenate([idx_in[d], idx_sh[d][keep]]) for d in range(grid.n + 1)
    )
    fractions = np.concatenate([np.ones(len(idx_in[0])), fr_sh[keep]])
    return BallCells(r=float(r), indices=indices, fractions=fractions)


def ball_sums(grid: Grid, densities: np.ndarray, radii, nsub: int = 4) -> np.ndarray:
    """sum(density * coverage of B_r^+) about the origin for every radius.

    densities holds per-cell integrals, shape cell_shape or
    (k,) + cell_shape; the result has shape (len(radii),) or
    (k, len(radii)). Cells with |d| <= r - half_diag enter through one
    prefix sum in distance order; only the shell |d - r| < half_diag is
    subsampled, by the ball_cells coverage rule.
    """
    radii = np.atleast_1d(np.asarray(radii, dtype=float))
    for r in radii:
        _check_radius(grid, r)
    order, dist, centers = grid._cells_by_radius
    dens = np.asarray(densities, dtype=float)
    flat = dens.reshape(-1, dist.size)[:, order]
    prefix = np.zeros((flat.shape[0], dist.size + 1))
    np.cumsum(flat, axis=1, out=prefix[:, 1:])
    half_diag = _half_diagonal(grid)
    lo = np.searchsorted(dist, radii - half_diag, side="right")
    hi = np.searchsorted(dist, radii + half_diag, side="left")
    out = np.empty((flat.shape[0], len(radii)))
    for i, r in enumerate(radii):
        fr = _coverage(grid, centers[lo[i]:hi[i]], r, nsub)
        out[:, i] = prefix[:, lo[i]] + (flat[:, lo[i]:hi[i]] * fr).sum(axis=1)
    return out if dens.ndim > grid.n + 1 else out[0]


def ball_weighted_measure(n: int, r: float, a: float) -> float:
    """Closed form int_{B_r^+} y^a dX (upper half ball)."""
    from scipy.special import gamma

    # integrate the half-sphere area in the radius
    if n == 1:
        area1 = np.sqrt(np.pi) * gamma((a + 1.0) / 2.0) / gamma(a / 2.0 + 1.0)
        return area1 * r ** (2.0 + a) / (2.0 + a)
    return 2.0 * np.pi / (1.0 + a) * r ** (3.0 + a) / (3.0 + a)
