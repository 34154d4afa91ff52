"""Solvers for the discrete thin obstacle problem.

Obstacle solver: the primal-dual active-set method on the complementarity
system
    min { 1/2 <KU,U> + <load,U> : U >= psi on thin nodes, U = g outside },
started from the same problem solved on each coarse level of the solve's
multigrid hierarchy, coarsest first (nested iteration), and stopped when
its natural residual (the largest projected Jacobi update) is at most
tol.
"""

from __future__ import annotations

import functools
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
# correction.
MG_COARSEST_NODES = 500
MG_SWEEPS = 2
MG_DAMPING = 0.7
CG_MAX_ITER = 500
# CG tolerance of an active set's first solve, on every level, relative to
# the residual it starts from: only its predicted active set is read, and
# the tight solve of the set it settles on certifies it. From the nested
# start, over the benchmark configs (seed 0, tol 1e-10) at h = 1/64 to
# 1/256 (n = 1) and 1/8 to 1/32 (n = 2), the finest level took 67 CG
# iterations in 14 solves at 1e-2 (50 more in 33 coarse-level solves);
# 3e-2 to 1e-3 took 67 or 68 in 14, 1e-4 75 in 15, 1e-6 90 in 16 and
# 1e-8 105 in 16. At 1e-1 a one-iteration loose solve confirmed a wrong
# set, which a tight solve rejected: 76 in 18. No tight solve rejected a
# set at any value from 1e-8 to 3e-2.
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
    """Each row of x, given on the coarse y nodes, interpolated to all the
    y nodes, t the y axis's weights as _axis_prolongation returns them."""
    q = len(t)
    out = np.empty((len(x), x.shape[1] + q))
    out[:, :2 * q + 1:2] = x[:, :q + 1]
    out[:, -1] = x[:, -1]
    between, lower = out[:, 1:2 * q:2], x[:, :q]
    np.subtract(x[:, 1:q + 1], lower, out=between)
    between *= t
    between += lower
    return out


def _restrict_y(y: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The transpose of _prolong_y: each row of y summed onto the coarse y
    nodes. Overwrites y."""
    q = len(t)
    out = np.empty((len(y), y.shape[1] - q))
    out[:, :q + 1] = y[:, :2 * q + 1:2]
    out[:, -1] = y[:, -1]
    between = y[:, 1:2 * q:2]
    out[:, :q] += between
    between *= t
    out[:, :q] -= between
    out[:, 1:q + 1] += between
    return out


def _scale(M: sp.csr_matrix, rows: np.ndarray, cols: np.ndarray) -> sp.csr_matrix:
    """M with entry (i, j) multiplied by rows[i] cols[j], in place."""
    M.data *= np.repeat(rows, np.diff(M.indptr)) * cols[M.indices]
    return M


# Products of an entry of P' with a row of A per block (at least one
# coarse y line) of the hierarchy build's Galerkin products, or a quarter
# of A's entries if more: a block's P' A, the build's largest
# intermediate, then holds 2 to 4 MB or about a twelfth of A's bytes.
GALERKIN_BLOCK_PRODUCTS = 2**19


class _Transfer:
    """One coarsening step of a _Multigrid: P = kron(T, Py) by its factors,
    T the Kronecker product of the thin axes' prolongations (with its
    transpose TT) and Py the y axis's, with the weights t of Py's rows
    between two coarse nodes (_axis_prolongation); the flat fine indices
    of the coarse nodes; and what low_rows reads: the mask of the coarse
    nodes in the two lowest coarse y layers, the rows of P' there, and the
    rows of P at the fine layers that those rows of P' A reach.

    restrict and prolong apply T by one sparse product over all y lines
    and Py by strided slices."""

    def __init__(self, T: sp.csr_matrix, y: tuple, coarse: np.ndarray):
        self.T, (self.Py, ky, self.t), self.coarse = T, y, coarse
        self.TT = T.T.tocsr()
        self.low = np.arange(len(coarse)) % len(ky) <= 1
        self.R_low = sp.kron(self.TT, self.Py.T.tocsr()[:2], format="csr")
        # R_low's columns lie at most one fine layer above coarse layer 1,
        # and an operator couples only adjacent layers
        self.P_low = sp.kron(T, self.Py[:ky[1] + 3], format="csr")

    def prolong(self, x: np.ndarray) -> np.ndarray:
        """P x."""
        return (self.T @ _prolong_y(x.reshape(self.T.shape[1], -1), self.t)).ravel()

    def restrict(self, y: np.ndarray) -> np.ndarray:
        """P' y."""
        return _restrict_y(self.TT @ y.reshape(self.T.shape[0], -1), self.t).ravel()

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
            R = _scale(R, keep_c[a * cy:(a + step) * cy], keep)
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

    def low_rows(self, A, keep: np.ndarray, keep_c: np.ndarray) -> sp.csr_matrix:
        """The rows of the two lowest coarse y layers of galerkin(A, keep,
        keep_c), the other rows empty."""
        X = _scale(self.R_low.copy(), keep_c[self.low], keep) @ A
        X.data *= keep[X.indices]
        thin, layer = np.divmod(X.indices, self.Py.shape[0])
        layers = self.P_low.shape[0] // self.T.shape[0]
        X = sp.csr_matrix((X.data, thin * layers + layer, X.indptr),
                          shape=(X.shape[0], self.P_low.shape[0])) @ self.P_low
        X.data *= keep_c[X.indices]
        counts = np.zeros(len(keep_c), dtype=X.indptr.dtype)
        counts[self.low] = np.diff(X.indptr)
        return sp.csr_matrix((X.data, X.indices, np.r_[0, np.cumsum(counts)]),
                             shape=(len(keep_c), len(keep_c)))


class _Multigrid:
    """Galerkin multigrid V-cycle for D K D, D = diag(keep): K is the
    stiffness, and the boolean keep is False on the fixed nodes (the
    Dirichlet nodes and any thin nodes).

    Each level stores one CSR operator (ops; the finest is K itself), its
    keep mask, its diagonal
    and, above the coarsest, its damped inverse diagonal; the coarsest
    also stores the inverse of its free block. Each coarsening step
    stores a _Transfer: the thin axes' and the y axis's factors of the
    prolongation P, by which the V-cycle and the nested start restrict
    and prolong, and the few rows of P' and P that an update reads. No
    full prolongation is stored or formed.

    Built once per solve from K and the Dirichlet mask, each coarse
    operator the masked Galerkin product of the level above
    (_Transfer.galerkin). A coarse row above the two lowest y layers reads
    only fine rows above the fine level's two lowest layers, and the
    operators couple only adjacent layers, so no such row sees a thin
    node: update(fixed, level) zeroes the rows of those two layers in
    each operator below the level and adds them recomputed, and the
    V-cycle and linear solves can start at any level. The masks act on
    vectors: the matvec is y = A x; y *= keep, restricted residuals and
    prolonged corrections are multiplied by keep, and no masked copy of A
    is made.
    """

    def __init__(self, K: sp.csr_matrix, dirichlet: np.ndarray, grid: Grid):
        keep, A, diagonal = ~dirichlet, K, K.diagonal()
        self.transfers, self.ops, self.keeps, self.diagonals, self.wdinv = [], [], [], [], []
        for T, y, coarse in _coarsenings(grid):
            self.ops.append(A)
            self.keeps.append(keep)
            self.diagonals.append(diagonal)
            self.wdinv.append(MG_DAMPING * keep / np.where(keep, diagonal, 1.0))
            self.transfers.append(_Transfer(T, y, coarse))
            keep_c = keep[coarse]
            A = self.transfers[-1].galerkin(A, keep, keep_c)
            keep, diagonal = keep_c, A.diagonal()
        self.ops.append(A)
        self.keeps.append(keep)
        self.diagonals.append(diagonal)
        free = np.flatnonzero(keep)
        self.coarsest = free, np.linalg.inv(A[free][:, free].toarray())

    def update(self, fixed: np.ndarray, level: int = 0) -> None:
        """Set the given level's mask to D = diag(~fixed), so that it
        solves with D A D, A its stored operator, and recompute the coarser
        levels from it; the finer levels are kept. fixed holds the level's
        Dirichlet nodes and may add thin nodes. A coarse level's stored
        operator must be one formed with the Dirichlet nodes alone fixed on
        every finer level, as after the build."""
        self.keeps[level] = ~fixed
        for lv in range(level, len(self.transfers)):
            t, keep = self.transfers[lv], self.keeps[lv]
            self.wdinv[lv] = MG_DAMPING * keep / np.where(keep, self.diagonals[lv], 1.0)
            keep_c = keep[t.coarse]
            C = self.ops[lv + 1]
            C.data[np.repeat(t.low, np.diff(C.indptr))] = 0.0
            C = C + t.low_rows(self.ops[lv], keep, keep_c)
            self.ops[lv + 1], self.keeps[lv + 1], self.diagonals[lv + 1] = C, keep_c, C.diagonal()
        free = np.flatnonzero(self.keeps[-1])
        self.coarsest = free, np.linalg.inv(self.ops[-1][free][:, free].toarray())

    def matvec(self, x: np.ndarray, level: int = 0) -> np.ndarray:
        y = self.ops[level] @ x
        y *= self.keeps[level]
        return y

    def _residual(self, b: np.ndarray, x: np.ndarray, level: int) -> np.ndarray:
        r = self.matvec(x, level)
        np.subtract(b, r, out=r)
        return r

    def _smooth(self, b: np.ndarray, x: np.ndarray, level: int) -> None:
        """One damped-Jacobi sweep on x, in place."""
        r = self._residual(b, x, level)
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
# then not known to settle; 54 surveyed configs (n = 1, 2, a up to 0.9,
# tilts up to 0.45, three obstacle shapes) settled within 5 finest-level
# solves from the nested start (9 from the unconstrained one), and within
# 10 solves over all levels.
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


def _natural_residual(form: SymmetricForm, dinv: np.ndarray, psi: np.ndarray,
                      U: np.ndarray) -> float:
    """max |U_i - max(U_i - r_i / K_ii, psi_i)|, r = K U + load, over the
    non-Dirichlet nodes, psi given on the thin rows (-inf elsewhere): the
    largest update one projected Jacobi step would make."""
    thin = form.thin_rows
    r = form.stiffness @ U
    r += form.load
    r *= dinv
    r[form.dirichlet] = 0.0
    u = U[thin]
    r[thin] = u - np.maximum(u - r[thin], psi)
    return float(np.abs(r, out=r).max())


def _predicted(A_thin: sp.csr_matrix, c: np.ndarray, load: np.ndarray, U: np.ndarray,
               thin: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """The active set {lambda - c (U - psi) > 0} of the thin rows, lambda =
    (A U + load) there, for A's thin rows A_thin and their diagonal c."""
    return (A_thin @ U + load[thin]) - c * (U[thin] - psi) > 0.0


def _nested_start(mg: _Multigrid, load: np.ndarray, thin: np.ndarray, psi: np.ndarray,
                  steps: list) -> np.ndarray:
    """W on the finest level, from the obstacle problem solved level by level
    on mg's coarse levels, coarsest first.

    load is the finest level's load of W = U - G (K G + load, zero on the
    Dirichlet nodes, G the Dirichlet values) and psi the obstacle on its
    thin rows thin; mg holds the hierarchy of the Dirichlet nodes alone.
    Each coarse level's problem is the Galerkin one: its load is the finer
    load restricted by P' and masked by the level's Dirichlet nodes, and
    psi is injected at its thin rows. From the coarser solution prolonged
    by P, loose active-set steps run until the set repeats, each recorded
    in steps with its level. A failed CG ends its level's steps. Returns
    the first coarse level's W prolonged to the finest."""
    levels = [(load, thin, psi)]
    for t, keep in zip(mg.transfers, mg.keeps[1:]):
        load, thin, psi = levels[-1]
        # a coarse node's fine index is t.coarse[node], ascending
        pos = np.minimum(np.searchsorted(t.coarse, thin), len(t.coarse) - 1)
        hit = t.coarse[pos] == thin
        load = t.restrict(load)
        load *= keep
        levels.append((load, pos[hit], psi[hit]))
    W = np.zeros(len(levels[-1][0]))
    for level in range(len(mg.transfers), 0, -1):
        load, thin, psi = levels[level]
        dirichlet = ~mg.keeps[level]
        A_thin, c = mg.ops[level][thin], mg.diagonals[level][thin]
        active = None
        for _ in range(ACTIVE_SET_MAX_STEPS):
            new_active = _predicted(A_thin, c, load, W, thin, psi)
            if np.array_equal(new_active, active):
                break
            active = new_active
            fixed = dirichlet.copy()
            fixed[thin[active]] = True
            mg.update(fixed, level)
            W[thin[active]] = psi[active]
            x, its = _linear_solve(mg, load, W, ACTIVE_SET_LOOSE_RTOL, loose=True, level=level)
            steps.append({"level": level, "active": int(active.sum()), "cg_iterations": its,
                          "rtol": ACTIVE_SET_LOOSE_RTOL})
            if x is None:
                break
            W = x
        W = mg.transfers[level - 1].prolong(W)
        W *= mg.keeps[level - 1]
    return W


def solve_active_set(
    form: SymmetricForm,
    problem: ProblemSpec,
    tol: float | None = None,
) -> SolutionField:
    """Primal-dual active-set method (Hintermueller, Ito and Kunisch, SIAM
    J. Optim. 13, 2002) for the complementarity system
        min { 1/2 <KU,U> + <load,U> : U >= psi on thin nodes, U = g outside },
    started by nested iteration (Kornhuber, Numer. Math. 69, 1994) on the
    solve's own multigrid hierarchy.

    _nested_start solves the problem on every coarse Galerkin level,
    coarsest first, and prolongs the result. From it, each step fixes
    U = psi on the active set {lambda - K_ii (U - psi) > 0}, lambda =
    (KU + load) on thin rows, and solves for the remaining free nodes, all
    on the one hierarchy. A new active set is solved until its residual
    falls by ACTIVE_SET_LOOSE_RTOL from its start. A repeated set is
    solved until every free node's residual over its diagonal is at most
    tol, and the solve ends when such a tight solve reproduces its own set
    and the recomputed natural residual (_natural_residual, in solution
    units), reported as final_residual, is at most tol. On a set that
    reproduces itself the two agree. The active set holds the thin
    non-Dirichlet nodes whose slack is at most contact_tol. iterations
    counts the finest level's solves; steps records every level's, each
    with its level (0 the finest). Raises NonconvergedError, carrying the
    last iterate, when the set does not settle within
    ACTIVE_SET_MAX_STEPS finest-level solves or a finest-level CG fails.
    """
    grid = form.grid
    tol = _default_tol(problem, tol)
    K, load, thin = form.stiffness, form.load, form.thin_rows
    K_thin = K[thin]
    # flat node index of a thin node is (thin ravel position) * ny
    psi = problem.psi.ravel()[thin // len(grid.ys)]
    U = np.where(form.dirichlet, problem.boundary.ravel(), 0.0)
    mg = _Multigrid(K, form.dirichlet, grid)
    c = mg.diagonals[0][thin]
    steps = []
    U += _nested_start(mg, np.where(form.dirichlet, 0.0, K @ U + load), thin, psi, steps)
    dinv = 1.0 / mg.diagonals[0]

    def fix(active):
        fixed = form.dirichlet.copy()
        fixed[thin[active]] = True
        mg.update(fixed)

    active = _predicted(K_thin, c, load, U, thin, psi)
    fix(active)
    loose = True
    for fine in range(1, ACTIVE_SET_MAX_STEPS + 1):
        U[thin[active]] = psi[active]
        if loose:
            x, its = _linear_solve(mg, load, U, ACTIVE_SET_LOOSE_RTOL, loose=True)
            steps.append({"level": 0, "active": int(active.sum()), "cg_iterations": its,
                          "rtol": ACTIVE_SET_LOOSE_RTOL})
        else:
            x, its = _linear_solve(mg, load, U, tol, scale=dinv)
            steps.append({"level": 0, "active": int(active.sum()), "cg_iterations": its,
                          "tol": tol})
        if x is None:
            raise NonconvergedError(
                f"inner CG failed at active-set step {fine}",
                last_iterate=U.reshape(grid.node_shape),
                final_residual=_natural_residual(form, dinv, psi, U),
            )
        U = x
        new_active = _predicted(K_thin, c, load, U, thin, psi)
        if not np.array_equal(new_active, active):
            active, loose = new_active, True
            fix(active)
        elif loose:
            loose = False
        else:
            residual = _natural_residual(form, dinv, psi, U)
            if residual <= tol:
                break
    else:
        raise NonconvergedError(
            f"active set did not settle in {ACTIVE_SET_MAX_STEPS} solves",
            last_iterate=U.reshape(grid.node_shape),
            final_residual=_natural_residual(form, dinv, psi, U),
        )

    Un = U.reshape(grid.node_shape)
    slack = Un[..., 0] - problem.psi
    active = (slack <= contact_tol(tol, problem.psi)) & ~grid.dirichlet_mask[..., 0]
    return SolutionField(
        U=Un,
        active=active,
        trace=neumann_trace(grid, Un),
        iterations=fine,
        final_residual=residual,
        tol=tol,
        steps=steps,
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
