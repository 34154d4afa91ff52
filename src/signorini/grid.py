"""Tensor-product discretization of the upper half box [-R,R]^n x [0,R].

The extension direction carries the degenerate weight |y|^a, a in (-1,1).
All per-cell weighted volumes are computed from the closed-form
antiderivative of y^a (never by evaluating y^a at y=0), so the weight is
handled exactly down to the thin set.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

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

    @property
    def resolution_floor(self) -> float:
        """2 max(hx, hy), the smallest radius of a sphere rule."""
        return 2.0 * max(self.hx, self.hy)

    # -- node coordinate fields -----------------------------------------
    def node_mesh(self) -> tuple:
        """Meshgrid of node coordinates, thin axes first, y last."""
        return np.meshgrid(*self.xs, self.ys, indexing="ij")

    def node_radii(self, x0=None) -> np.ndarray:
        """|X - (x0, 0)| at every node, from the open mesh of the axes."""
        x0 = np.zeros(self.n) if x0 is None else x0
        return self.node_block(x0, np.inf)[1]

    def node_block(self, x0, r: float) -> tuple:
        """(block, radii): the slices of the node block with |x_d - x0_d| <= r
        and y <= r, the bounding box of the ball |X - (x0, 0)| <= r, and
        |X - (x0, 0)| on that block. Every node of the ball lies in it."""
        x0 = np.atleast_1d(np.asarray(x0, dtype=float))
        centred = [ax - c for ax, c in zip(self.xs, x0)] + [self.ys]
        block = tuple(slice(np.searchsorted(d, -r, side="left"), np.searchsorted(d, r, side="right"))
                      for d in centred)
        axes = np.ix_(*(d[b] for d, b in zip(centred, block)))
        return block, np.sqrt(sum(ax**2 for ax in axes))

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
    def evenly_spaced(self) -> tuple:
        """For each node axis (thin axes, then y), whether its nodes are
        evenly spaced (locate's test)."""
        return tuple(_evenly_spaced(ax) for ax in self.xs + (self.ys,))

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


# ---------------------------------------------------------------------------
# off-node sampling
# ---------------------------------------------------------------------------


class Stencil(NamedTuple):
    """Where locate found points in a tensor grid: the flat index of each
    point's cell (its lowest corner), and for each of the 2^d cell
    corners, in the order of itertools.product((0, 1), repeat=d), its
    flat offset from that index and the weight of every point."""

    shape: tuple  # the points' shape without their coordinate axis
    grid_shape: tuple  # tuple(len(ax) for ax in axes)
    base: np.ndarray  # (m,) flat cell indices
    offsets: list  # 2^d ints
    weights: list  # 2^d float arrays (m,)


def _evenly_spaced(ax: np.ndarray) -> bool:
    width = ax[1:] - ax[:-1]
    return bool(width.max() - width.min() <= 1e-9 * width.min())


def locate(axes, points, first_layer_power: float | None = None, even=None) -> Stencil:
    """The multilinear stencil of points (..., len(axes)) in the tensor
    grid of axes, for read; points may also be a tuple of len(axes)
    coordinate arrays of one shape. even, when given, says for each axis
    whether it is evenly spaced (Grid.evenly_spaced).

    A point's cell is the one whose left node is the last at or below it
    (on an evenly spaced axis, floor((x - x_0)/h), so a point within
    rounding of a node may take either neighbouring cell), clamped to
    the end cells, so points outside the box extrapolate linearly from
    the boundary cell. With first_layer_power=p the local coordinate t
    in [0, 1) of the last axis's first cell becomes t**p; p = 1-a gives
    the first-layer profile u0 + (u1 - u0) (y/y1)^{1-a}, exact on the
    (1, y^{1-a}) basis.

    The corner weights are a product tree over the axes: the weight of a
    corner is the left-to-right product of its per-axis factors (1 - t
    or t), and its flat offset is the dot product of the corner with the
    table's strides.
    """
    if isinstance(points, tuple):
        columns = [np.ascontiguousarray(c, dtype=float).ravel() for c in points]
        points_shape = np.shape(points[0])
    else:
        pts = np.asarray(points, dtype=float)
        columns = [np.ascontiguousarray(c) for c in pts.reshape(-1, len(axes)).T]
        points_shape = pts.shape[:-1]
    shape = tuple(len(ax) for ax in axes)
    strides = [int(s) for s in np.cumprod((1,) + shape[:0:-1])[::-1]]
    if even is None:
        even = [_evenly_spaced(ax) for ax in axes]
    base, factors = None, []
    for d, (ax, x) in enumerate(zip(axes, columns)):
        width = ax[1:] - ax[:-1]
        if even[d]:
            i = ((x - ax[0]) * ((len(ax) - 1) / (ax[-1] - ax[0]))).astype(np.intp)
            # truncation is floor above x_0; then clamp to the end cells
            np.minimum(np.maximum(i, 0, out=i), len(ax) - 2, out=i)
        else:
            i = np.searchsorted(ax[1:-1], x, side="right")
        t = (x - ax[i]) / width[i]
        if first_layer_power is not None and d == len(axes) - 1:
            np.power(t, first_layer_power, out=t, where=(i == 0) & (t >= 0.0) & (t < 1.0))
        base = i * strides[d] if base is None else base + i * strides[d]
        factors.append((1.0 - t, t))
    weights, offsets = list(factors[0]), [0, strides[0]]
    for pair, stride in zip(factors[1:], strides[1:]):
        weights = [w * f for w in weights for f in pair]
        offsets = [o + c for o in offsets for c in (0, stride)]
    return Stencil(points_shape, shape, base, offsets, weights)


def read(stencil: Stencil, values) -> np.ndarray:
    """A table of shape stencil.grid_shape + trailing, interpolated at the
    stencil's points: shape stencil.shape + trailing. The corners'
    weighted values are summed in the stencil's corner order."""
    vals = np.asarray(values, dtype=float)
    trailing = vals.shape[len(stencil.grid_shape):]
    table = vals.reshape((-1,) + trailing)
    out = None
    for offset, w in zip(stencil.offsets, stencil.weights):
        term = table[offset:][stencil.base]  # the corner's values: table[base + offset]
        term *= w.reshape(w.shape + (1,) * len(trailing))
        out = term if out is None else np.add(out, term, out=out)
    return out.reshape(stencil.shape + trailing)


def interpolate(axes, values, points, first_layer_power: float | None = None) -> np.ndarray:
    """Multilinear interpolation of a tensor-grid table at arbitrary points:
    read(locate(axes, points, first_layer_power), values). values has
    shape tuple(len(ax) for ax in axes) + trailing and points
    (..., len(axes)); the result has shape points.shape[:-1] + trailing."""
    return read(locate(axes, points, first_layer_power), values)


# ---------------------------------------------------------------------------
# sphere quadrature
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SphereRule:
    """Quadrature on the upper half sphere of radius r.

    Applying the rule to nodal samples of g returns
    int_{S_r^+} g |y|^a dsigma; callers double the result for evenly
    reflected fields. The points and weights are scaled from the shared
    unit rule each time they are read, so a list of rules holds no
    arrays of its own; they are read-only.
    """

    r: float
    unit: tuple  # (points, weights) of the rule on the unit half sphere
    weight_scale: float  # r^{n+a}

    @property
    def points(self) -> np.ndarray:
        """(m, n+1) coordinates."""
        return _read_only(self.unit[0] * self.r)

    @property
    def weights(self) -> np.ndarray:
        """(m,) weights, including the surface measure and |y|^a."""
        return _read_only(self.unit[1] * self.weight_scale)

    @property
    def size(self) -> int:
        return len(self.unit[1])

    def integrate(self, values: np.ndarray) -> float:
        return float(np.dot(self.weights, values))


def _check_radius(grid: Grid, r: float) -> None:
    if not (0 < r <= grid.R):
        raise UnsupportedRadiusError(f"radius {r} outside (0, R={grid.R}]")


def _gauss_jacobi(m: int, alpha: float, beta: float) -> tuple:
    """Nodes and weights of the m-point Gauss rule for the weight
    (1-t)^alpha (1+t)^beta on [-1, 1], alpha, beta > -1 (Golub and
    Welsch, Math. Comp. 23, 1969): the nodes are the eigenvalues of the
    symmetric tridiagonal matrix of the orthonormal Jacobi recurrence and
    the weights mu0 = int (1-t)^alpha (1+t)^beta dt times the squared
    first components of its unit eigenvectors."""
    ab = alpha + beta
    k = np.arange(1, m, dtype=float)
    s = 2.0 * k + ab
    diag = np.r_[(beta - alpha) / (ab + 2.0), (beta**2 - alpha**2) / (s * (s + 2.0))]
    # off-diagonal k carries (k + ab) / (s - 1): 1 at k = 1, where it is 0/0 when ab = -1
    q = np.ones_like(k)
    q[1:] = (k[1:] + ab) / (s[1:] - 1.0)
    off = np.sqrt(4.0 * k * (k + alpha) * (k + beta) * q / (s**2 * (s + 1.0)))
    J = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    t, v = np.linalg.eigh(J)
    mu0 = 2.0 ** (ab + 1.0) * math.gamma(alpha + 1.0) * math.gamma(beta + 1.0) / math.gamma(ab + 2.0)
    return t, mu0 * v[0] ** 2


@lru_cache(maxsize=32)
def _unit_sphere_rule(n: int, n_angles: int, a: float) -> tuple:
    """Read-only (points, weights) of the rule on the unit half sphere."""
    if n == 1:
        t, w = _gauss_jacobi(n_angles, (a - 1.0) / 2.0, (a - 1.0) / 2.0)
        theta = np.arccos(t)
        return _read_only(np.column_stack([np.cos(theta), np.sin(theta)])), _read_only(w)
    # n == 2: y = u with u in (0,1], thin radius sqrt(1-u^2)
    t, w = _gauss_jacobi(n_angles, 0.0, a)
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
    if r < grid.resolution_floor:
        raise UnsupportedRadiusError(
            f"radius {r} below resolution floor 2*max(hx,hy)={grid.resolution_floor}")
    return SphereRule(float(r), _unit_sphere_rule(grid.n, int(n_angles), float(a)),
                      r ** (grid.n + a))


# ---------------------------------------------------------------------------
# ball coverage
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BallCells:
    """Cells meeting the upper half ball, with coverage fractions in [0,1]."""

    r: float
    indices: tuple  # arrays of cell multi-indices
    fractions: np.ndarray


def _half_diagonal(grid: Grid) -> float:
    return 0.5 * np.sqrt(grid.n * grid.hx**2 + grid.hy**2)


def _cell_distances(grid: Grid) -> np.ndarray:
    """|cell centre| over the cell grid."""
    return np.sqrt(sum(c**2 for c in grid.cell_centers()))


def _coverage(grid: Grid, centers: np.ndarray, radii, lo, hi, nsub: int) -> list:
    """For each radius radii[i], the fraction of each cell of
    centers[lo[i]:hi[i]] (centres (m, n+1)) inside |X| <= radii[i], from a
    fixed nsub^(n+1)-point midpoint subsample per cell. A cell's subsample
    distances are computed once for all the spans that hold it, walking
    the merged spans in blocks of at most the longest span's cells."""
    fr = (np.arange(nsub) + 0.5) / nsub - 0.5
    lo, hi = np.asarray(lo, dtype=np.intp), np.asarray(hi, dtype=np.intp)
    out = [np.empty(b - a) for a, b in zip(lo, hi)]
    block = max(int((hi - lo).max(initial=0)), 1)
    merged = []
    for a, b in sorted(zip(lo.tolist(), hi.tolist())):
        if merged and a <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], b)
        elif a < b:
            merged.append([a, b])
    for start, stop in merged:
        for b0 in range(start, stop, block):
            b1 = min(b0 + block, stop)
            r2 = 0.0
            for d in range(grid.n + 1):
                h = grid.hy if d == grid.n else grid.hx
                shape = [b1 - b0] + [1] * (grid.n + 1)
                shape[d + 1] = nsub
                r2 = r2 + ((centers[b0:b1, d, None] + fr * h) ** 2).reshape(shape)
            r2 = r2.reshape(b1 - b0, -1)
            for i in np.flatnonzero((lo < b1) & (hi > b0)).tolist():
                s0, s1 = max(int(lo[i]), b0), min(int(hi[i]), b1)
                inside = r2[s0 - b0:s1 - b0] <= radii[i] * radii[i]
                out[i][s0 - lo[i]:s1 - lo[i]] = np.count_nonzero(inside, axis=1) / inside.shape[1]
    return out


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
    fr_sh = _coverage(grid, sh_centers, [r], [0], [len(sh_centers)], nsub)[0]
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
    subsampled, by the ball_cells coverage rule, and a cell in several
    radii's shells is subsampled once.
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
    coverage = _coverage(grid, centers, radii, lo, hi, nsub)
    for i, fr in enumerate(coverage):
        out[:, i] = prefix[:, lo[i]] + (flat[:, lo[i]:hi[i]] * fr).sum(axis=1)
    return out if dens.ndim > grid.n + 1 else out[0]
