"""Solvers for the discrete thin obstacle problem.

Reference solver: projected SOR on the complementarity system
    min { 1/2 <KU,U> + <load,U> : U >= psi on thin nodes, U = g outside },
started from a primal-dual active-set iterate (Hintermueller, Ito and
Kunisch, SIAM J. Optim. 13, 2002); the sweeps certify that iterate and
take over when the active set does not settle.
Cross-validation solver: the smooth penalization with boundary term
beta_eps, solved by damped Newton.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import InvalidParameterError, NonconvergedError
from .coefficients import ProblemSpec
from .grid import Grid
from .operator import SymmetricForm, neumann_trace


@dataclass
class SolutionField:
    """Converged nodal solution with contact bookkeeping."""

    U: np.ndarray  # node_shape
    active: np.ndarray  # thin-shape bool, U = psi off the Dirichlet boundary
    trace: np.ndarray  # thin-shape weighted Neumann trace
    iterations: int
    final_residual: float
    tol: float
    active_set_iterations: int = 0  # linear solves of the active-set start
    inner_iterations: int = 0  # CG iterations of all inner linear solves


# ---------------------------------------------------------------------------
# penalty family
# ---------------------------------------------------------------------------


def penalty(s, eps: float):
    """Monotone C^1 penalty: 0 for s>=0, eps + s/eps for s <= -2 eps^2,
    quadratic bridge -s^2/(4 eps^3) in between (<= 0, nondecreasing)."""
    if eps <= 0:
        raise InvalidParameterError(f"penalty width eps must be positive, got {eps}")
    s = np.asarray(s, dtype=float)
    out = np.where(
        s >= 0.0,
        0.0,
        np.where(s <= -2.0 * eps**2, eps + s / eps, -(s**2) / (4.0 * eps**3)),
    )
    return out if out.ndim else float(out)


def penalty_derivative(s, eps: float):
    if eps <= 0:
        raise InvalidParameterError(f"penalty width eps must be positive, got {eps}")
    s = np.asarray(s, dtype=float)
    out = np.where(
        s >= 0.0,
        0.0,
        np.where(s <= -2.0 * eps**2, 1.0 / eps, -s / (2.0 * eps**3)),
    )
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# linear solves
# ---------------------------------------------------------------------------


# Galerkin multigrid: levels are coarsened until at most MG_COARSEST_NODES
# nodes remain, which SuperLU then solves; each level smooths with
# MG_SWEEPS damped-Jacobi sweeps (damping MG_DAMPING) before and after its
# coarse correction.
MG_COARSEST_NODES = 500
MG_SWEEPS = 2
MG_DAMPING = 0.7
CG_MAX_ITER = 500
# CG tolerance of the active-set solves. The PSOR update at a node is its
# residual over the diagonal, and the diagonal scales like h^(n-1) while
# |b| grows with the fixed values: at n=2, h=1/32 a relative residual of
# 1e-12 left 10 certifying sweeps, 1e-13 and below one.
ACTIVE_SET_RTOL = 1e-14
# Newton steps and CG tolerance of the penalized solve.
NEWTON_MAX_STEPS = 60
NEWTON_CG_RTOL = 1e-12


def _axis_prolongation(z: np.ndarray) -> tuple:
    """Linear interpolation along one axis from its coarse nodes (the
    even-index nodes plus the last) to all of z, in z's own coordinates.
    Returns (P, keep): the (len(z), len(keep)) CSR matrix and the fine
    indices of the coarse nodes."""
    m = len(z)
    keep = np.unique(np.r_[np.arange(0, m, 2), m - 1])
    zc = z[keep]
    k = np.clip(np.searchsorted(zc, z, side="right") - 1, 0, len(zc) - 2)
    t = (z - zc[k]) / (zc[k + 1] - zc[k])
    P = sp.csr_matrix((np.r_[1.0 - t, t], (np.r_[np.arange(m), np.arange(m)], np.r_[k, k + 1])),
                      shape=(m, len(zc)))
    P.eliminate_zeros()
    return P, keep


def _prolongations(grid: Grid) -> list:
    """Full prolongations [(P, coarse_nodes), ...] from the finest level
    down: P is the Kronecker product of the axis prolongations (an axis
    of two nodes maps to itself) and coarse_nodes the flat fine indices
    of the coarse nodes."""
    axes = list(grid.xs) + [grid.ys]
    levels = []
    while np.prod([len(z) for z in axes]) > MG_COARSEST_NODES and max(len(z) for z in axes) > 2:
        mats, keeps = zip(*(_axis_prolongation(z) for z in axes))
        P = mats[0]
        for Q in mats[1:]:
            P = sp.kron(P, Q, format="csr")
        coarse = np.ravel_multi_index(np.meshgrid(*keeps, indexing="ij"),
                                      [len(z) for z in axes]).ravel()
        levels.append((P, coarse))
        axes = [z[keep] for z, keep in zip(axes, keeps)]
    return levels


def _masked(A: sp.csr_matrix, fixed: np.ndarray):
    """The product with the embedded matrix D A D + I_fixed, D = diag(~fixed),
    as x -> where(free, A (D x), x), without forming it: A on the free
    block, identity on the fixed rows."""
    free = ~fixed
    return lambda x: np.where(free, A @ np.where(free, x, 0.0), x)


def _vcycle(A: sp.csr_matrix, fixed: np.ndarray, levels: list):
    """Symmetric V(MG_SWEEPS, MG_SWEEPS)-cycle for the embedded matrix of A
    (see _masked), as a function of the residual; levels are the grid's
    _prolongations. The finest level smooths with the masked product.
    Coarse operators are P'AP plus the identity on coarse fixed nodes,
    with P masked to zero on fine and coarse fixed rows, which makes P'AP
    equal to the product with the embedded matrix. A grid with no coarse
    level factors the embedded matrix itself."""
    free = ~fixed
    matvec, diag = _masked(A, fixed), np.where(free, A.diagonal(), 1.0)
    ops = []
    for P, coarse in levels:
        fixed_c = fixed[coarse]
        P = sp.diags(free.astype(float)) @ P @ sp.diags((~fixed_c).astype(float))
        R = P.T.tocsr()
        ops.append((matvec, MG_DAMPING / diag, P, R))
        A = (R @ A @ P + sp.diags(fixed_c.astype(float))).tocsr()
        fixed, free = fixed_c, ~fixed_c
        matvec, diag = A.dot, A.diagonal()
    if not levels:
        D = sp.diags(free.astype(float))
        A = D @ A @ D + sp.diags(fixed.astype(float))
    return partial(_cycle, ops, spla.splu(A.tocsc()))


def _cycle(ops: list, coarsest, b: np.ndarray, level: int = 0) -> np.ndarray:
    """One V-cycle from the given level down. A module-level function, so
    that a hierarchy holds no reference cycle and is freed with its solve."""
    if level == len(ops):
        return coarsest.solve(b)
    matvec, wdinv, P, R = ops[level]
    x = wdinv * b
    for _ in range(MG_SWEEPS - 1):
        x += wdinv * (b - matvec(x))
    x += P @ _cycle(ops, coarsest, R @ (b - matvec(x)), level + 1)
    for _ in range(MG_SWEEPS):
        x += wdinv * (b - matvec(x))
    return x


def _linear_solve(A, fixed: np.ndarray, load: np.ndarray, U: np.ndarray, levels: list,
                  rtol: float) -> tuple:
    """Solve for x = U on the fixed nodes and (A x + load) = 0 on the rest.

    Runs CG from U on the embedded system D A D + I_fixed, D = diag(~fixed),
    applied by _masked without a copy of A, preconditioned by one Galerkin
    multigrid V-cycle on the tensor grid (levels: its _prolongations, built
    once per solve), to a residual of rtol times the right-hand side. A
    must be symmetric and positive definite on the free nodes. Returns
    (x, iterations), with x None when CG does not converge.
    """
    matvec = _masked(A, fixed)
    b = np.where(fixed, U, -(load + A @ np.where(fixed, U, 0.0)))
    cycle = _vcycle(A, fixed, levels)
    count = [0]

    def tick(_):
        count[0] += 1

    x, info = spla.cg(spla.LinearOperator(A.shape, matvec=matvec, dtype=float), b, x0=U,
                      rtol=rtol, atol=0.0,
                      M=spla.LinearOperator(A.shape, matvec=cycle, dtype=float),
                      maxiter=CG_MAX_ITER, callback=tick)
    return (x if info == 0 else None), count[0]


# ---------------------------------------------------------------------------
# projected SOR
# ---------------------------------------------------------------------------

# Most linear solves of the active-set start before PSOR takes over. With an
# off-diagonal thin coefficient K is not an M-matrix, and the active-set
# iteration may then cycle instead of settling.
ACTIVE_SET_MAX_STEPS = 20


def near_optimal_omega(grid: Grid) -> float:
    """Relaxation 2/(1 + sin(pi hy/R)), the SOR optimum for the model
    Laplacian at this resolution."""
    return 2.0 / (1.0 + np.sin(np.pi * grid.hy / grid.R))


def _active_set_start(form: SymmetricForm, U: np.ndarray, psi_full: np.ndarray) -> tuple:
    """Primal-dual active-set iteration for the complementarity system, in place on U.

    U holds the Dirichlet values on entry. The first step solves without
    the obstacle; each later step fixes U = psi on the active set
    {lambda - K_ii (U - psi) > 0}, lambda = (KU + load) on thin rows, and
    solves for the remaining free nodes. Stops when the active set
    repeats, after ACTIVE_SET_MAX_STEPS solves, or when CG fails (U then
    keeps the previous iterate, set to psi on the current active set).
    Returns (solves attempted, total CG iterations).
    """
    K, load, thin = form.stiffness, form.load, form.thin_rows
    K_thin = K[thin]
    c = K.diagonal()[thin]
    psi = psi_full[thin]
    active = np.zeros(len(thin), dtype=bool)
    levels = _prolongations(form.grid)
    step = inner = 0
    for step in range(1, ACTIVE_SET_MAX_STEPS + 1):
        fixed = form.dirichlet.copy()
        fixed[thin[active]] = True
        U[thin[active]] = psi[active]
        x, its = _linear_solve(K, fixed, load, U, levels, ACTIVE_SET_RTOL)
        inner += its
        if x is None:
            break
        U[:] = x
        new_active = (K_thin @ U + load[thin]) - c * (U[thin] - psi) > 0.0
        if np.array_equal(new_active, active):
            break
        active = new_active
    return step, inner


def _color_classes(grid: Grid, free: np.ndarray):
    """Multicolor partition of free nodes so same-color nodes never couple.

    n=1: checkerboard on i+j. n=2: four colors on ((i+k) mod 2,
    (j+k) mod 2), which separates axis neighbors and the in-plane
    diagonal couplings produced by off-diagonal thin coefficients.
    """
    shape = grid.node_shape
    idx = np.indices(shape)
    if grid.n == 1:
        labels = (idx[0] + idx[1]) % 2
        n_colors = 2
    else:
        labels = 2 * ((idx[0] + idx[2]) % 2) + ((idx[1] + idx[2]) % 2)
        n_colors = 4
    labels = labels.ravel()
    return [np.where((labels == c) & free)[0] for c in range(n_colors)]


def _default_tol(problem: ProblemSpec, tol: float | None) -> float:
    if tol is not None:
        return tol
    scale = max(
        1e-30,
        float(np.abs(problem.boundary).max()),
        float(np.abs(problem.psi).max()),
        float(np.abs(problem.f).max()),
    )
    return 1e-10 * max(scale, 1.0)


def contact_tol(tol: float, psi: np.ndarray) -> float:
    """Slack U - psi at or below which a thin node is in contact:
    10 tol max(|psi|, 1), for a solve stopped at tol."""
    return 10.0 * tol * max(float(np.abs(psi).max()), 1.0)


def solve_psor(
    form: SymmetricForm,
    problem: ProblemSpec,
    tol: float | None = None,
    max_iter: int = 100_000,
    omega: float | None = None,
    warm_start: bool = True,
) -> SolutionField:
    """Projected successive over-relaxation (multicolor ordering).

    With warm_start the sweeps start from the primal-dual active-set
    iterate, which they certify (usually in one sweep) or finish when the
    active set does not settle; otherwise they start from zero. omega
    defaults to near_optimal_omega(grid). Stops when the largest nodal
    update in a sweep is <= tol. The active set holds the thin
    non-Dirichlet nodes whose slack is at most contact_tol. Raises
    NonconvergedError (carrying the last iterate) at max_iter.
    """
    grid = form.grid
    if omega is None:
        omega = near_optimal_omega(grid)
    if not (0.0 < omega < 2.0):
        raise InvalidParameterError(f"relaxation omega must lie in (0, 2), got {omega}")
    tol = _default_tol(problem, tol)
    K = form.stiffness
    load = form.load
    dirichlet = form.dirichlet
    free = ~dirichlet
    thin_flat = grid.thin_mask.ravel() & free
    psi_full = np.full(grid.n_nodes, -np.inf)
    psi_full[grid.thin_mask.ravel()] = problem.psi.ravel()

    U = np.where(dirichlet, problem.boundary.ravel(), 0.0)
    active_steps, inner = _active_set_start(form, U, psi_full) if warm_start else (0, 0)
    U[thin_flat] = np.maximum(U[thin_flat], psi_full[thin_flat])

    classes = _color_classes(grid, free)
    diag = form.diag
    blocks = []
    for ids in classes:
        if len(ids):
            blocks.append((ids, K[ids], load[ids], diag[ids], thin_flat[ids], psi_full[ids]))

    it = 0
    delta = np.inf
    for it in range(1, max_iter + 1):
        delta = 0.0
        for ids, Kc, lc, dc, tc, pc in blocks:
            r = Kc @ U + lc
            unew = U[ids] - omega * r / dc
            unew = np.where(tc, np.maximum(unew, pc), unew)
            step = np.abs(unew - U[ids]).max() if len(ids) else 0.0
            delta = max(delta, float(step))
            U[ids] = unew
        if delta <= tol:
            break
    else:
        raise NonconvergedError(
            f"projected SOR did not reach tol={tol:g} in {max_iter} sweeps (last update {delta:g})",
            last_iterate=U.reshape(grid.node_shape),
            final_residual=delta,
        )

    Un = U.reshape(grid.node_shape)
    slack = Un[..., 0] - problem.psi
    active = (slack <= contact_tol(tol, problem.psi)) & ~grid.dirichlet_mask[..., 0]
    return SolutionField(
        U=Un,
        active=active,
        trace=neumann_trace(grid, Un),
        iterations=it,
        final_residual=float(delta),
        tol=tol,
        active_set_iterations=active_steps,
        inner_iterations=inner,
    )


# ---------------------------------------------------------------------------
# penalized solver
# ---------------------------------------------------------------------------


def solve_penalized(
    form: SymmetricForm,
    problem: ProblemSpec,
    eps: float,
    tol: float | None = None,
) -> SolutionField:
    """Damped Newton on K U + load + T' beta_eps(U - psi) = 0.

    T samples thin nodes scaled by thin cell area; the Jacobian
    K + T' diag(beta_eps') T stays symmetric positive definite because
    beta_eps' >= 0. Every inner solve is the multigrid-preconditioned CG
    of _linear_solve, run to NEWTON_CG_RTOL.
    Complementarity of the result only holds up to O(eps).
    """
    if eps <= 0:
        raise InvalidParameterError(f"penalty width eps must be positive, got {eps}")
    grid = form.grid
    tol = _default_tol(problem, tol)
    K = form.stiffness
    load = form.load
    dirichlet = form.dirichlet
    thin = form.thin_rows
    ny = len(grid.ys)
    # flat node index of a thin node is (thin ravel position) * ny
    areas = grid.thin_weighted(np.ones(grid.node_shape[:-1])).ravel()[thin // ny]
    psi_thin = problem.psi.ravel()[thin // ny]

    levels = _prolongations(grid)
    U = np.where(dirichlet, problem.boundary.ravel(), 0.0)
    scale = max(np.linalg.norm(np.where(dirichlet, 0.0, K @ U + load)), 1.0)
    U, inner = _linear_solve(K, dirichlet, load, U, levels, rtol=NEWTON_CG_RTOL)
    if U is None:
        raise NonconvergedError(
            "inner CG failed on the unconstrained start", last_iterate=None, final_residual=np.inf,
        )

    def residual(U):
        r = K @ U + load
        r[thin] += areas * penalty(U[thin] - psi_thin, eps)
        r[dirichlet] = 0.0
        return r

    r = residual(U)
    rnorm = np.linalg.norm(r)
    zero = np.zeros(grid.n_nodes)
    it = 0
    for it in range(1, NEWTON_MAX_STEPS + 1):
        if rnorm <= tol * scale:
            break
        dpen = areas * penalty_derivative(U[thin] - psi_thin, eps)
        Jac = K + sp.csr_matrix((dpen, (thin, thin)), shape=K.shape)
        dU, its = _linear_solve(Jac, dirichlet, r, zero, levels, rtol=NEWTON_CG_RTOL)
        inner += its
        if dU is None:
            raise NonconvergedError(
                f"inner CG failed at Newton step {it}",
                last_iterate=None, final_residual=rnorm,
            )
        step = 1.0
        for _ in range(30):
            U_try = U + step * dU
            r_try = residual(U_try)
            if np.linalg.norm(r_try) < rnorm:
                break
            step *= 0.5
        else:
            raise NonconvergedError(
                "Newton stagnation in penalized solve",
                last_iterate=None, final_residual=rnorm,
            )
        U, r = U_try, r_try
        rnorm = np.linalg.norm(r)
    else:
        raise NonconvergedError(
            f"penalized Newton did not converge in {NEWTON_MAX_STEPS} steps",
            last_iterate=None, final_residual=rnorm,
        )

    Un = U.reshape(grid.node_shape)
    act_tol = 2.0 * eps * (1.0 + np.abs(problem.psi).max())
    active = (Un[..., 0] - problem.psi) <= act_tol
    return SolutionField(
        U=Un,
        active=active,
        trace=neumann_trace(grid, Un),
        iterations=it,
        final_residual=float(rnorm),
        tol=tol,
        inner_iterations=inner,
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
    do not bound the solution error (PSOR stopped at tol=1e-10 has given
    a min_gap_max of 6e-12 with a max error of 7e-8).
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
