"""Solvers for the discrete thin obstacle problem.

Obstacle solver: the primal-dual active-set method on the complementarity
system
    min { 1/2 <KU,U> + <load,U> : U >= psi on thin nodes, U = g outside },
one loop of steps run on every level of the solve's multigrid hierarchy,
coarsest first (nested iteration), each level started from the coarser
one's solution and the finest stopped when its natural residual (the
largest projected Jacobi update) is at most tol. Its linear solves are
conjugate gradients preconditioned by a Galerkin multigrid V-cycle, whose
hierarchy is built once per solve and, as the active set changes,
updated in place by probing the rows it reaches.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import NonconvergedError
from .coefficients import ProblemSpec
from .grid import Grid
from .operator import SymmetricForm, neumann_trace


@dataclass
class SolutionField:
    """Converged nodal solution with contact bookkeeping."""

    U: np.ndarray  # node_shape
    active: np.ndarray  # thin-shape bool, U = psi off the Dirichlet boundary
    trace: np.ndarray  # thin-shape weighted Neumann trace
    iterations: int  # linear solves on the finest level
    final_residual: float
    tol: float
    # one record per inner linear solve: {"level": its multigrid level, 0
    # the finest, "active": thin nodes fixed, "cg_iterations": ..., and
    # "rtol", its CG tolerance relative to its starting residual (a loose
    # solve), or "tol", its natural-residual stop (a tight solve)}
    steps: list = field(default_factory=list)
    # seconds of the multigrid hierarchy's build and of all its updates
    hierarchy_s: dict = field(default_factory=dict)

    @property
    def inner_iterations(self) -> int:
        """CG iterations of the finest level's linear solves."""
        return sum(s["cg_iterations"] for s in self.steps if s["level"] == 0)


# ---------------------------------------------------------------------------
# linear solves
# ---------------------------------------------------------------------------


# Galerkin multigrid (_Multigrid): levels are coarsened until at most
# MG_COARSEST_NODES nodes remain, whose free block is solved by its dense
# inverse, recomputed at every update; each level smooths with MG_SWEEPS
# damped-Jacobi sweeps (damping MG_DAMPING) before and after its coarse
# correction. Chosen by the wall time of solve_active_set on the benchmark
# configs at several h (BENCH_29.json): V(2,2) at 0.8 beat 0.7 by 4 to
# 15% in each of four rounds; V(1,1) was as fast but needs up to 22 CG
# iterations for a tight solve, and damped Jacobi diverges from 1 on
# (lambda_max(D^-1 A) = 2).
MG_COARSEST_NODES = 500
MG_SWEEPS = 2
MG_DAMPING = 0.8
CG_MAX_ITER = 500
# CG tolerance of an active set's first solve, on every level, relative to
# the residual it starts from: only its predicted active set is read, and
# the tight solve of the set it settles on certifies it. From the nested
# start, over the benchmark configs (seed 0, tol 1e-10) at h = 1/64 to
# 1/256 (n = 1) and 1/8 to 1/32 (n = 2), the finest level took 64 CG
# iterations in 14 solves at 1e-2 (50 more in 33 coarse-level solves);
# 3e-3 to 1e-4 also took 64 in 14, 3e-2 64 in 15, 1e-6 83 in 16 and 1e-8
# 99 in 16. At 1e-1 a loose solve confirmed a wrong set, which a tight
# solve rejected: 72 in 17. No tight solve rejected a set at any value
# from 1e-8 to 3e-2.
ACTIVE_SET_LOOSE_RTOL = 1e-2


def _axis_prolongation(z: np.ndarray) -> tuple:
    """Linear interpolation along one axis from its coarse nodes (the
    even-index nodes plus the last) to all of z, in z's own coordinates.
    Returns (P, keep, t): the (len(z), len(keep)) CSR matrix, the fine
    indices of the coarse nodes, and the weight t of the upper coarse
    node at each node between two (fine nodes 1, 3, ..., 2 len(t) - 1)."""
    m = len(z)
    keep = np.unique(np.r_[np.arange(0, m, 2), m - 1])
    zc = z[keep]
    k = np.clip(np.searchsorted(zc, z, side="right") - 1, 0, len(zc) - 2)
    t = (z - zc[k]) / (zc[k + 1] - zc[k])
    P = sp.csr_matrix((np.r_[1.0 - t, t], (np.r_[np.arange(m), np.arange(m)], np.r_[k, k + 1])),
                      shape=(m, len(zc)))
    P.eliminate_zeros()
    return P, keep, t[1:m - 1 - (m + 1) % 2:2]


def _coarsenings(grid: Grid):
    """The multigrid's coarsening steps, finest first, one at a time, as
    (T, y, coarse): T the Kronecker product of the thin axes'
    prolongations, y the _axis_prolongation of the y axis (the last and
    fastest), and coarse the flat fine indices of the coarse nodes. The
    full prolongation is kron(T, y[0]); an axis of two nodes maps to
    itself."""
    xs, ys = list(grid.xs), grid.ys
    while np.prod([len(z) for z in xs + [ys]]) > MG_COARSEST_NODES \
            and max(len(z) for z in xs + [ys]) > 2:
        thin = [_axis_prolongation(z) for z in xs]
        y = _axis_prolongation(ys)
        keep = np.ravel_multi_index(np.meshgrid(*(k for _, k, _ in thin), indexing="ij"),
                                    [len(z) for z in xs]).ravel()
        T = functools.reduce(lambda A, B: sp.kron(A, B, format="csr"), [P for P, _, _ in thin])
        yield T, y, (keep[:, None] * len(ys) + y[1]).ravel()
        xs, ys = [z[k] for z, (_, k, _) in zip(xs, thin)], ys[y[1]]


def _prolong_y(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """x, given along its axis 1 on the coarse y nodes (all of them, or the
    lowest few), interpolated to the y nodes those span, t the y axis's
    weights as _axis_prolongation returns them."""
    q = min(len(t), x.shape[1] - 1)
    t = t[:q].reshape((q,) + (1,) * (x.ndim - 2))
    out = np.empty((len(x), x.shape[1] + q) + x.shape[2:])
    out[:, :2 * q + 1:2] = x[:, :q + 1]
    out[:, -1] = x[:, -1]
    between, lower = out[:, 1:2 * q:2], x[:, :q]
    np.subtract(x[:, 1:q + 1], lower, out=between)
    between *= t
    between += lower
    return out


def _restrict_y(y: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The transpose of _prolong_y: y, given along its axis 1 on the y
    nodes that some coarse y nodes span, summed onto those. Overwrites
    y."""
    q = min(len(t), (y.shape[1] - 1) // 2)
    t = t[:q].reshape((q,) + (1,) * (y.ndim - 2))
    out = np.empty((len(y), y.shape[1] - q) + y.shape[2:])
    out[:, :q + 1] = y[:, :2 * q + 1:2]
    out[:, -1] = y[:, -1]
    between = y[:, 1:2 * q:2]
    out[:, :q] += (1.0 - t) * between
    between *= t
    out[:, 1:q + 1] += between
    return out


def _colours(nodes: np.ndarray, shape: tuple) -> np.ndarray:
    """The colour of each given flat node index on a grid of the given
    shape: its indices mod 3, read as one base-3 number. Nodes that differ
    by at most one index on every axis differ in colour."""
    return np.ravel_multi_index(tuple(i % 3 for i in np.unravel_index(nodes, shape)), (3,) * len(shape))


def _low(x: np.ndarray, ny: int, layers: int = 2) -> np.ndarray:
    """The view of x's rows at the lowest layers of ny y layers, as
    (y lines, layers) and any further axes of x."""
    return x.reshape(-1, ny, *x.shape[1:])[:, :layers]


def _entries(A: sp.csr_matrix, ny: int, layers: int) -> tuple:
    """(pos, row): the positions in A.data of the entries of A's rows at
    the lowest layers of its level's ny y layers, row by row, and each
    one's row among those."""
    idx = A.indices.dtype
    rows = (np.arange(A.shape[0] // ny, dtype=idx)[:, None] * ny + np.arange(layers, dtype=idx)).ravel()
    counts = np.diff(A.indptr)[rows]
    row = np.repeat(np.arange(len(rows), dtype=idx), counts)
    pos = np.arange(len(row), dtype=idx)
    pos += (A.indptr[rows] - np.cumsum(counts, dtype=idx) + counts)[row]
    return pos, row


def _layers(A: sp.csr_matrix, ny: int, layers: int) -> tuple:
    """(S, pos): S the rows and columns of A at the lowest layers of its
    level's ny y layers, a CSR matrix with sorted indices, and pos the
    positions of S's entries in A.data."""
    pos, row = _entries(A, ny, layers)
    line, layer = np.divmod(A.indices[pos], ny)
    inside = layer < layers
    line *= layers
    line += layer
    n = A.shape[0] // ny * layers
    S = sp.csr_matrix((pos[inside], line[inside], np.r_[0, np.cumsum(np.bincount(row[inside], minlength=n))]),
                      shape=(n, n))
    del pos, row, line, layer, inside
    S.sort_indices()  # whatever the order of A's rows
    return sp.csr_matrix((A.data[S.data], S.indices, S.indptr), shape=S.shape), S.data


# Products of an entry of P' with a row of A per block (at least one
# coarse y line) of the hierarchy build's Galerkin products, or a quarter
# of A's entries if more: a block's P' A, the build's largest
# intermediate, then holds 2 to 4 MB or about a twelfth of A's bytes.
GALERKIN_BLOCK_PRODUCTS = 2**19


class _Transfer:
    """One coarsening step of a _Multigrid: P = kron(T, Py) by its factors,
    T the Kronecker product of the thin axes' prolongations (with its
    transpose TT) and Py the y axis's, given by the weights t of its rows
    between two coarse nodes (_axis_prolongation); the flat fine indices
    of the coarse nodes; and the coarse level's node shape.

    restrict and prolong apply T by one sparse product over all y lines
    and Py by strided slices, to a vector or to one column per vector,
    given on the whole level or on its lowest y layers (probe)."""

    def __init__(self, T: sp.csr_matrix, y: tuple, coarse: np.ndarray, shape: tuple):
        self.T, (self.Py, _, self.t), self.coarse, self.shape = T, y, coarse, shape
        self.TT = T.T.tocsr()
        low = shape[:-1] + (min(3, shape[-1]),)  # the coarse layers a probe covers
        self.colour = _colours(np.arange(np.prod(low)), low)

    def prolong(self, x: np.ndarray) -> np.ndarray:
        """P x."""
        y = _prolong_y(x.reshape(self.T.shape[1], -1, *x.shape[1:]), self.t)
        return (self.T @ y.reshape(len(y), -1)).reshape(-1, *x.shape[1:])

    def restrict(self, y: np.ndarray) -> np.ndarray:
        """P' y."""
        x = self.TT @ y.reshape(self.T.shape[0], -1)
        return _restrict_y(x.reshape(len(x), -1, *y.shape[1:]), self.t).reshape(-1, *y.shape[1:])

    def probe(self, S: sp.csr_matrix, keep: np.ndarray, keep_c: np.ndarray) -> np.ndarray:
        """The rows of the two lowest coarse y layers of D_c P' D A D P D_c
        (see galerkin) times the indicator of each colour (_colours) of the
        coarse nodes, one column per colour. That operator couples only
        nodes within one index on every axis, which differ in colour, so a
        column holds one entry of each row: the one in the column of the
        row's neighbour of that colour. S is A on the fine layers that the
        three lowest coarse layers span (_layers), all those rows read;
        keep and keep_c are the whole levels' masks."""
        ny, layers = self.shape[-1], min(3, self.shape[-1])
        keep_c = _low(keep_c, ny, layers).reshape(-1, 1)
        keep = _low(keep, len(keep) // self.T.shape[0], S.shape[0] // self.T.shape[0]).reshape(-1, 1)
        r = []
        # nine colours at a time (one index mod 3 on each axis but the last
        # two), so that at n = 2 the fine arrays hold a third of the columns
        for colours in np.arange(3 ** len(self.shape)).reshape(-1, 9):
            x = self.prolong(((self.colour[:, None] == colours) & keep_c).astype(float))
            x *= keep
            y = S @ x
            del x
            y *= keep
            r.append(self.restrict(y))
        r = np.hstack(r)
        r *= keep_c
        return _low(r, layers).reshape(-1, r.shape[1])

    def galerkin(self, A, keep: np.ndarray, keep_c: np.ndarray) -> sp.csr_matrix:
        """The coarse operator D_c P' D A D P D_c, D = diag(keep) on the
        fine level and D_c = diag(keep_c) on the coarse one, formed in
        blocks of whole coarse y lines: a block's rows of P' and the rows
        of P that those reach through A are Kronecker products of pieces
        of T and Py, so the full P is never formed."""
        PyT = self.Py.T.tocsr()
        cy, my = self.Py.shape[1], self.Py.shape[0]
        lines = self.TT.shape[0]
        products = max(GALERKIN_BLOCK_PRODUCTS, A.nnz // 4)
        step = max(int(products * lines * A.shape[0] / (self.TT.nnz * PyT.nnz * A.nnz)), 1)
        step = -(-lines // -(-lines // step))  # blocks of equal size
        blocks = []
        for a in range(0, lines, step):
            R = sp.kron(self.TT[a:a + step], PyT, format="csr")
            R.data *= np.repeat(keep_c[a * cy:(a + step) * cy], np.diff(R.indptr)) * keep[R.indices]
            R.eliminate_zeros()
            X = R @ A
            del R
            X.data *= keep[X.indices]
            lo, hi = (X.indices.min() // my, X.indices.max() // my + 1) if X.nnz else (0, 0)
            X.indices -= lo * my
            X = sp.csr_matrix((X.data, X.indices, X.indptr), shape=(X.shape[0], (hi - lo) * my))
            X = X @ sp.kron(self.T[lo:hi], self.Py, format="csr")
            X.data *= keep_c[X.indices]
            blocks.append(X)
        return blocks[0] if len(blocks) == 1 else sp.vstack(blocks, format="csr")


class _Multigrid:
    """Galerkin multigrid V-cycle for D K D, D = diag(keep): K is the
    stiffness, and the boolean keep is False on the fixed nodes (the
    Dirichlet nodes and any thin nodes).

    Each level stores one CSR operator (ops; the finest is K itself), its
    keep mask, its diagonal and, above the coarsest, its damped inverse
    diagonal; the coarsest also stores the inverse of its free block.
    Each coarsening step stores a _Transfer: the thin axes' and the y
    axis's factors of the prolongation P, by which the V-cycle and the
    nested start restrict and prolong. No full prolongation is stored or
    formed.

    Built once per solve from K and the Dirichlet mask, each coarse
    operator the masked Galerkin product of the level above
    (_Transfer.galerkin). A coarse row above the two lowest y layers reads
    only fine rows above the fine level's two lowest layers, and the
    operators couple only adjacent layers, so no such row sees a thin
    node. update(fixed, level) therefore recomputes, below the level, only
    the rows of the two lowest layers, by probing (_Transfer.probe): it
    needs the fine operator on the few layers those rows read, kept per
    step with where its entries lie in the level's data (slabs), and it
    overwrites those rows' data, diagonals and damped inverse diagonals in
    place (lows: where the rows' entries lie in the data and in the
    probes), so the CSR arrays never change shape. The V-cycle and linear
    solves can start at any level. The masks act on vectors: the matvec
    is y = A x; y *= keep, restricted residuals and prolonged corrections
    are multiplied by keep, and no masked copy of A is made.
    build_s and update_s total the seconds of the build and the updates.
    """

    def __init__(self, K: sp.csr_matrix, dirichlet: np.ndarray, grid: Grid):
        start = time.perf_counter()
        keep, A, diagonal, shape = ~dirichlet, K, K.diagonal(), grid.node_shape
        self.transfers, self.ops, self.keeps, self.diagonals, self.wdinv = [], [], [], [], []
        self.slabs, self.lows = [], []
        for T, y, coarse in _coarsenings(grid):
            self.ops.append(A)
            self.keeps.append(keep)
            self.diagonals.append(diagonal)
            self.wdinv.append(MG_DAMPING * keep / np.where(keep, diagonal, 1.0))
            shape_c = tuple(m // 2 + 1 for m in shape)
            transfer = _Transfer(T, y, coarse, shape_c)
            self.transfers.append(transfer)
            self.slabs.append(_layers(A, shape[-1], y[1][min(3, len(y[1])) - 1] + 1))
            keep_c = keep[coarse]
            A = transfer.galerkin(A, keep, keep_c)
            # the entries of the two lowest coarse layers' rows: their
            # positions in A.data and in the array of an update's probes
            at, row = _entries(A, shape_c[-1], 2)
            low, probes = _low(np.arange(len(coarse)), shape_c[-1]).ravel(), 3 ** len(shape_c)
            self.lows.append((at, row * probes + _colours(A.indices[at], shape_c),
                              np.arange(len(low)) * probes + _colours(low, shape_c)))
            keep, diagonal, shape = keep_c, A.diagonal(), shape_c
        self.ops.append(A)
        self.keeps.append(keep)
        self.diagonals.append(diagonal)
        free = np.flatnonzero(keep)
        self.coarsest = free, np.linalg.inv(A[free][:, free].toarray())
        self.build_s, self.update_s = time.perf_counter() - start, 0.0

    def update(self, fixed: np.ndarray, level: int = 0) -> None:
        """Set the given level's mask to D = diag(~fixed), so that it
        solves with D A D, A its stored operator, and recompute the coarser
        levels from it; the finer levels are kept. fixed holds the level's
        Dirichlet nodes and may add thin nodes. A coarse level's stored
        operator must be one formed with the Dirichlet nodes alone fixed on
        every finer level, as after the build."""
        start = time.perf_counter()
        self.keeps[level] = ~fixed
        for lv in range(level, len(self.transfers)):
            t, keep, (S, pos) = self.transfers[lv], self.keeps[lv], self.slabs[lv]
            ny, cy = len(keep) // t.T.shape[0], t.shape[-1]
            low = _low(keep, ny)
            _low(self.wdinv[lv], ny)[:] = MG_DAMPING * low / np.where(low, _low(self.diagonals[lv], ny), 1.0)
            if lv > level:  # this update rewrote the level's two lowest layers
                S.data[:] = self.ops[lv].data[pos]
            keep_c = keep[t.coarse]
            r = t.probe(S, keep, keep_c).ravel()
            at, entries, diagonal = self.lows[lv]
            self.ops[lv + 1].data[at] = r[entries]
            _low(self.diagonals[lv + 1], cy)[:] = r[diagonal].reshape(-1, 2)
            self.keeps[lv + 1] = keep_c
        free = np.flatnonzero(self.keeps[-1])
        self.coarsest = free, np.linalg.inv(self.ops[-1].toarray()[np.ix_(free, free)])
        self.update_s += time.perf_counter() - start

    def matvec(self, x: np.ndarray, level: int = 0) -> np.ndarray:
        y = self.ops[level] @ x
        y *= self.keeps[level]
        return y

    def _residual(self, b: np.ndarray, x: np.ndarray, level: int) -> np.ndarray:
        r = self.matvec(x, level)
        np.subtract(b, r, out=r)
        return r

    def _smooth(self, b: np.ndarray, x: np.ndarray, level: int) -> None:
        """One damped-Jacobi sweep on x, in place; wdinv is zero on the
        fixed nodes, so the product needs no mask."""
        r = self.ops[level] @ x
        np.subtract(b, r, out=r)
        r *= self.wdinv[level]
        x += r

    def cycle(self, b: np.ndarray, level: int = 0) -> np.ndarray:
        """One V-cycle from the given level down, for a residual b that is
        zero on the fixed nodes; the result is zero there too."""
        if level == len(self.transfers):
            free, inverse = self.coarsest
            x = np.zeros_like(b)
            x[free] = inverse @ b[free]
            return x
        t = self.transfers[level]
        x = self.wdinv[level] * b
        for _ in range(MG_SWEEPS - 1):
            self._smooth(b, x, level)
        r = t.restrict(self._residual(b, x, level))
        r *= self.keeps[level + 1]
        e = t.prolong(self.cycle(r, level + 1))
        e *= self.keeps[level]
        x += e
        for _ in range(MG_SWEEPS):
            self._smooth(b, x, level)
        return x


def _cg(matvec, psolve, x: np.ndarray, r: np.ndarray, atol: float,
        scale: np.ndarray | None = None) -> tuple:
    """Conjugate gradients for matvec(x) = b, preconditioned by psolve
    (which returns a new array), from x and its residual r = b - matvec(x),
    both updated in place, until the recurred residual r has a norm of at
    most atol, or with scale, until max |scale r| is at most atol.
    Returns (x, iterations), with x None when CG_MAX_ITER iterations do not
    reach atol."""
    for it in range(CG_MAX_ITER):
        size = np.linalg.norm(r) if scale is None else np.abs(scale * r).max()
        if size <= atol:
            return x, it
        z = psolve(r)
        rho = np.dot(r, z)
        if it:
            p *= rho / rho_prev
            p += z
        else:
            p = z
        q = matvec(p)
        alpha = rho / np.dot(p, q)
        x += alpha * p
        r -= alpha * q
        del z, q  # the next psolve holds only x, r and p
        rho_prev = rho
    return None, CG_MAX_ITER


def _linear_solve(mg: _Multigrid, load: np.ndarray, U: np.ndarray, tol: float,
                  loose: bool = False, scale: np.ndarray | None = None,
                  level: int = 0) -> tuple:
    """Solve for x = U on the fixed nodes of mg's last update of the level
    and (A x + load) = 0 on the rest, A that level's operator.

    Runs CG on D A D, D = diag(~fixed), with the fixed values moved to the
    right-hand side, from U's free values, preconditioned by one V-cycle
    of mg from that level. It stops at a residual norm of tol times that
    of the right-hand side of the embedded system D A D + I_fixed, whose
    fixed rows carry U's fixed values, or with loose, tol times that of
    U's own residual.
    With scale it stops instead when every free node's residual times
    scale is at most tol in size. A must be symmetric and positive
    definite on the free nodes.
    Returns (x, iterations), with x None when CG does not converge.
    """
    keep = mg.keeps[level]
    fixed = ~keep
    r = -(load + mg.ops[level] @ np.where(fixed, U, 0.0))  # the right-hand side b
    r *= keep
    b_norm = np.linalg.norm(r)
    x = U * keep
    matvec = functools.partial(mg.matvec, level=level)
    r -= matvec(x)  # the residual CG starts from
    if scale is not None:
        atol = tol
    elif loose:
        atol = tol * np.linalg.norm(r)
    else:
        atol = tol * np.hypot(b_norm, np.linalg.norm(U[fixed]))
    x, its = _cg(matvec, functools.partial(mg.cycle, level=level), x, r, atol, scale)
    return (None if x is None else np.where(fixed, U, x)), its


# ---------------------------------------------------------------------------
# primal-dual active-set solver
# ---------------------------------------------------------------------------

# Most linear solves of the active-set iteration on each level. With an
# off-diagonal thin coefficient K is not an M-matrix, and the iteration is
# then not known to settle; 54 surveyed configs (n = 1 at h = 1/64 and
# n = 2 at h = 1/16; a = 0, 0.5, 0.9; tilts, or at n = 1 slopes of b_11,
# of 0, 0.25 and 0.45; three obstacle shapes) settled within 5
# finest-level solves from the nested start, and within 10 solves over
# all levels.
ACTIVE_SET_MAX_STEPS = 20


def _default_tol(problem: ProblemSpec, tol: float | None) -> float:
    if tol is not None:
        return tol
    scale = max(float(np.abs(v).max()) for v in (problem.boundary, problem.psi, problem.f))
    return 1e-10 * max(scale, 1.0)


def contact_tol(tol: float, psi: np.ndarray) -> float:
    """Slack U - psi at or below which a thin node is in contact:
    10 tol max(|psi|, 1), for a solve whose natural residual is at most
    tol."""
    return 10.0 * tol * max(float(np.abs(psi).max()), 1.0)


def _natural_residual(A: sp.csr_matrix, load: np.ndarray, dinv: np.ndarray,
                      dirichlet: np.ndarray, thin: np.ndarray, psi: np.ndarray,
                      U: np.ndarray) -> float:
    """max |U_i - max(U_i - r_i / A_ii, psi_i)|, r = A U + load, over the
    non-Dirichlet nodes, dinv = 1 / A_ii and psi given on the thin rows
    thin (-inf elsewhere): the largest update one projected Jacobi step
    would make."""
    r = A @ U
    r += load
    r *= dinv
    r[dirichlet] = 0.0
    u = U[thin]
    r[thin] = u - np.maximum(u - r[thin], psi)
    return float(np.abs(r, out=r).max())


def _predicted(A_thin: sp.csr_matrix, c: np.ndarray, load: np.ndarray, U: np.ndarray,
               thin: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """The active set {lambda - c (U - psi) > 0} of the thin rows, lambda =
    (A U + load) there, for A's thin rows A_thin and their diagonal c."""
    return (A_thin @ U + load[thin]) - c * (U[thin] - psi) > 0.0


def _active_set(mg: _Multigrid, level: int, load: np.ndarray, thin: np.ndarray,
                psi: np.ndarray, U: np.ndarray, steps: list, tol: float | None = None) -> tuple:
    """Active-set steps on one level of mg, from U, for its problem: x = U
    on the level's Dirichlet nodes, x >= psi on its thin rows thin, and A x
    + load = 0 on the other nodes, A the level's operator, with the
    complementarity conditions on the thin rows.

    Each step predicts the set from U (_predicted). A new set is fixed to
    psi, written to mg (update) and solved loosely, until the residual
    falls by ACTIVE_SET_LOOSE_RTOL. Without tol (a coarse level) a
    repeated set ends the steps. With tol a repeated set is solved tightly,
    until every free node's residual over its diagonal is at most tol, and
    the steps end when a tight solve reproduces its own set with a natural
    residual (_natural_residual) of at most tol. Each solve is recorded in
    steps with its level, and its result overwrites U. Returns (residual,
    failure): residual is U's natural residual with tol, else None, and
    failure None or why the set did not settle: ACTIVE_SET_MAX_STEPS
    solves, or a failed CG (U then holds that solve's start)."""
    dirichlet, A = ~mg.keeps[level], mg.ops[level]
    A_thin, c = A[thin], mg.diagonals[level][thin]
    dinv = None if tol is None else 1.0 / mg.diagonals[level]
    active, loose, failure = None, True, None
    for step in range(ACTIVE_SET_MAX_STEPS + 1):
        new_active = _predicted(A_thin, c, load, U, thin, psi)
        if not np.array_equal(new_active, active):
            active, loose = new_active, True
        elif tol is None:
            break
        elif loose:
            loose = False
        elif (residual := _natural_residual(A, load, dinv, dirichlet, thin, psi, U)) <= tol:
            return residual, None
        if step == ACTIVE_SET_MAX_STEPS:
            failure = f"active set did not settle in {ACTIVE_SET_MAX_STEPS} solves"
            break
        if loose:
            fixed = dirichlet.copy()
            fixed[thin[active]] = True
            mg.update(fixed, level)
            U[thin[active]] = psi[active]
            x, its = _linear_solve(mg, load, U, ACTIVE_SET_LOOSE_RTOL, loose=True, level=level)
            stop = {"rtol": ACTIVE_SET_LOOSE_RTOL}
        else:
            x, its = _linear_solve(mg, load, U, tol, scale=dinv, level=level)
            stop = {"tol": tol}
        steps.append({"level": level, "active": int(active.sum()), "cg_iterations": its, **stop})
        if x is None:
            failure = f"inner CG failed at active-set step {step + 1}"
            break
        U[:] = x
        del x  # the next solve holds no finest array beside U
    residual = None if tol is None else _natural_residual(A, load, dinv, dirichlet, thin, psi, U)
    return residual, failure


def solve_active_set(
    form: SymmetricForm,
    problem: ProblemSpec,
    tol: float | None = None,
) -> SolutionField:
    """Primal-dual active-set method (Hintermueller, Ito and Kunisch, SIAM
    J. Optim. 13, 2002) for the complementarity system
        min { 1/2 <KU,U> + <load,U> : U >= psi on thin nodes, U = g outside },
    by nested iteration (Kornhuber, Numer. Math. 69, 1994): _active_set
    runs on every level of the solve's own multigrid hierarchy, coarsest
    first, each level from the coarser one's solution prolonged by P.

    A coarse level solves the Galerkin problem for W = U - G, G the
    Dirichlet values: its load is the finer level's (K G + load, zero on
    the Dirichlet nodes, on the finest) restricted by P' and masked by the
    level's Dirichlet nodes, and psi is injected at its thin rows; a failed
    CG or ACTIVE_SET_MAX_STEPS solves end its steps without an error. The
    finest level starts from G + P W with the stop tol, and its natural
    residual (in solution units) is reported as final_residual. The active
    set holds the thin non-Dirichlet nodes whose slack is at most
    contact_tol. iterations counts the finest level's solves; steps
    records every level's, each with its level (0 the finest). Raises
    NonconvergedError, carrying the last iterate, when the set does not
    settle within ACTIVE_SET_MAX_STEPS finest-level solves or a
    finest-level CG fails.
    """
    grid = form.grid
    tol = _default_tol(problem, tol)
    K, load, thin = form.stiffness, form.load, form.thin_rows
    # flat node index of a thin node is (thin ravel position) * ny
    psi = problem.psi.ravel()[thin // len(grid.ys)]
    U = np.where(form.dirichlet, problem.boundary.ravel(), 0.0)
    mg = _Multigrid(K, form.dirichlet, grid)
    load_c, thin_c, psi_c, levels = np.where(form.dirichlet, 0.0, K @ U + load), thin, psi, []
    for t, keep in zip(mg.transfers, mg.keeps[1:]):
        # a coarse node's fine index is t.coarse[node], ascending
        pos = np.minimum(np.searchsorted(t.coarse, thin_c), len(t.coarse) - 1)
        hit = t.coarse[pos] == thin_c
        load_c = t.restrict(load_c)
        load_c *= keep
        thin_c, psi_c = pos[hit], psi_c[hit]
        levels.append((load_c, thin_c, psi_c))
    W, steps = np.zeros(len(load_c)), []
    for level in range(len(levels), 0, -1):
        _active_set(mg, level, *levels[level - 1], W, steps)
        W = mg.transfers[level - 1].prolong(W)
        W *= mg.keeps[level - 1]
    U += W
    del W  # no finest-level array beside U is held through its steps
    residual, failure = _active_set(mg, 0, load, thin, psi, U, steps, tol)
    if failure is not None:
        raise NonconvergedError(failure, last_iterate=U.reshape(grid.node_shape),
                                final_residual=residual)

    Un = U.reshape(grid.node_shape)
    slack = Un[..., 0] - problem.psi
    active = (slack <= contact_tol(tol, problem.psi)) & ~grid.dirichlet_mask[..., 0]
    return SolutionField(
        U=Un,
        active=active,
        trace=neumann_trace(grid, Un),
        iterations=sum(s["level"] == 0 for s in steps),
        final_residual=residual,
        tol=tol,
        steps=steps,
        hierarchy_s={"build_s": mg.build_s, "update_s": mg.update_s},
    )


# ---------------------------------------------------------------------------
# complementarity certification
# ---------------------------------------------------------------------------


def complementarity_report(sol: SolutionField, problem: ProblemSpec, form: SymmetricForm) -> dict:
    """KKT gap statistics on the thin set.

    Uses the discrete conormal multiplier lambda = (KU + load) at thin
    rows (the weak form of -d_y^a U against the hat functions): both
    min(U - psi, lambda) and (U - psi) * lambda vanish at an exact
    discrete solution. The gaps are in multiplier units: lambda is a
    weak-form residual that scales with the cell measure, so small gaps
    do not bound the solution error. The solve's final_residual, its
    natural residual, holds min(U - psi, lambda / K_ii) on thin rows, the
    same gap in solution units.
    """
    grid = form.grid
    ny = len(grid.ys)
    r = (form.stiffness @ sol.U.ravel() + form.load)
    lam = r[form.thin_rows]
    slack = (sol.U[..., 0] - problem.psi).ravel()[form.thin_rows // ny]
    gap_min = np.minimum(slack, lam)
    gap_prod = slack * lam
    area = grid.thin_cell_area
    return {
        "min_gap_max": float(np.abs(gap_min).max()),
        "min_gap_l2": float(np.sqrt((gap_min**2).sum() * area)),
        "prod_gap_max": float(np.abs(gap_prod).max()),
        "prod_gap_l2": float(np.sqrt((gap_prod**2).sum() * area)),
        "multiplier_min": float(lam.min()),
        "slack_min": float(slack.min()),
    }
