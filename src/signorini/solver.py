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
    active: np.ndarray  # thin-shape bool, U = psi
    trace: np.ndarray  # thin-shape weighted Neumann trace
    iterations: int
    final_residual: float
    tol: float
    method: str
    energy_history: np.ndarray | None = None
    active_set_iterations: int = 0  # linear solves of the active-set start


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


def _linear_solve(A, b: np.ndarray, n: int, x0: np.ndarray | None = None,
                  rtol: float = 1e-12) -> np.ndarray | None:
    """Solve the SPD system A x = b; None when CG does not converge.

    n=1 factorizes with SuperLU under a minimum-degree ordering of A'+A.
    n=2 runs Jacobi-preconditioned CG from x0 (to rtol): the fill-in of a
    3-D factorization costs seconds, while CG needs a few hundred steps.
    """
    if n == 1:
        return spla.splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A").solve(b)
    M = sp.diags(1.0 / A.diagonal())
    x, info = spla.cg(A, b, x0=x0, rtol=rtol, atol=0.0, M=M, maxiter=5000)
    return x if info == 0 else None


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


def _active_set_start(form: SymmetricForm, U: np.ndarray, psi_full: np.ndarray) -> int:
    """Primal-dual active-set iteration for the complementarity system, in place on U.

    U holds the Dirichlet values on entry. The first step solves without
    the obstacle; each later step fixes U = psi on the active set
    {lambda - K_ii (U - psi) > 0}, lambda = (KU + load) on thin rows, and
    solves for the remaining free nodes. Stops when the active set
    repeats, after ACTIVE_SET_MAX_STEPS solves, or when CG fails (U then
    keeps the previous iterate, set to psi on the current active set).
    Returns the number of solves attempted.
    """
    K, load, thin = form.stiffness, form.load, form.thin_rows
    K_thin = K[thin]
    c = K.diagonal()[thin]
    psi = psi_full[thin]
    active = np.zeros(len(thin), dtype=bool)
    step = 0
    for step in range(1, ACTIVE_SET_MAX_STEPS + 1):
        fixed = form.dirichlet.copy()
        fixed[thin[active]] = True
        U[thin[active]] = psi[active]
        F = ~fixed
        K_F = K[F]
        u = _linear_solve(K_F[:, F], -(load[F] + K_F[:, fixed] @ U[fixed]), form.grid.n,
                          x0=U[F])
        if u is None:
            break
        U[F] = u
        new_active = (K_thin @ U + load[thin]) - c * (U[thin] - psi) > 0.0
        if np.array_equal(new_active, active):
            break
        active = new_active
    return step


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


def solve_psor(
    form: SymmetricForm,
    problem: ProblemSpec,
    tol: float | None = None,
    max_iter: int = 100_000,
    omega: float | None = None,
    warm_start: bool = True,
    record_energy: bool = False,
) -> SolutionField:
    """Projected successive over-relaxation (multicolor ordering).

    With warm_start the sweeps start from the primal-dual active-set
    iterate, which they certify (usually in one sweep) or finish when the
    active set does not settle; otherwise they start from zero. omega
    defaults to near_optimal_omega(grid). Stops when the largest nodal
    update in a sweep is <= tol. Raises NonconvergedError (carrying the
    last iterate) at max_iter.
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
    active_steps = _active_set_start(form, U, psi_full) if warm_start else 0
    U[thin_flat] = np.maximum(U[thin_flat], psi_full[thin_flat])

    classes = _color_classes(grid, free)
    diag = form.diag
    blocks = []
    for ids in classes:
        if len(ids):
            blocks.append((ids, K[ids], load[ids], diag[ids], thin_flat[ids], psi_full[ids]))

    energies = [] if record_energy else None
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
        if energies is not None:
            energies.append(0.5 * U @ (K @ U) + load @ U)
        if delta <= tol:
            break
    else:
        raise NonconvergedError(
            f"projected SOR did not reach tol={tol:g} in {max_iter} sweeps (last update {delta:g})",
            last_iterate=U.reshape(grid.node_shape),
            final_residual=delta,
        )

    Un = U.reshape(grid.node_shape)
    active = (Un[..., 0] - problem.psi) <= 0.0
    return SolutionField(
        U=Un,
        active=active,
        trace=neumann_trace(grid, Un, problem.a),
        iterations=it,
        final_residual=float(delta),
        tol=tol,
        method="psor",
        energy_history=np.asarray(energies) if energies is not None else None,
        active_set_iterations=active_steps,
    )


# ---------------------------------------------------------------------------
# penalized solver
# ---------------------------------------------------------------------------


def _thin_node_areas(grid: Grid) -> np.ndarray:
    """Lumped thin-cell areas int phi_i dx at thin nodes (flat over thin shape)."""
    w = np.ones(tuple(len(x) for x in grid.xs))
    for d in range(grid.n):
        wx = np.full(len(grid.xs[d]), grid.hx)
        wx[0] = wx[-1] = grid.hx / 2.0
        shape = [1] * grid.n
        shape[d] = len(wx)
        w = w * wx.reshape(shape)
    return w


def solve_penalized(
    form: SymmetricForm,
    problem: ProblemSpec,
    eps: float,
    tol: float | None = None,
    max_newton: int = 60,
    cg_tol: float = 1e-12,
) -> SolutionField:
    """Damped Newton on K U + load + T' beta_eps(U - psi) = 0.

    T samples thin nodes scaled by thin cell area; the Jacobian
    K + T' diag(beta_eps') T stays symmetric positive definite because
    beta_eps' >= 0. Inner solves factorize for n=1 and run Jacobi-CG to
    cg_tol for n=2.
    Complementarity of the result only holds up to O(eps).
    """
    if eps <= 0:
        raise InvalidParameterError(f"penalty width eps must be positive, got {eps}")
    grid = form.grid
    tol = _default_tol(problem, tol)
    K = form.stiffness
    load = form.load
    dirichlet = form.dirichlet
    free = ~dirichlet
    free_idx = np.where(free)[0]
    pos_of = -np.ones(grid.n_nodes, dtype=int)
    pos_of[free_idx] = np.arange(len(free_idx))

    ny = len(grid.ys)
    thin_flat = np.where(grid.thin_mask.ravel() & free)[0]
    thin_pos = pos_of[thin_flat]
    # flat node index of a thin node is (thin ravel position) * ny
    areas = _thin_node_areas(grid).ravel()[thin_flat // ny]
    psi_free_thin = problem.psi.ravel()[thin_flat // ny]

    U = np.where(dirichlet, problem.boundary.ravel(), 0.0)
    Kff = K[free][:, free].tocsr()
    bc_term = K[free][:, dirichlet] @ U[dirichlet]

    u = _linear_solve(Kff, -(load[free] + bc_term), grid.n, rtol=cg_tol)
    if u is None:
        raise NonconvergedError(
            "inner CG failed on the unconstrained start", last_iterate=None, final_residual=np.inf,
        )

    def residual(u):
        s = u[thin_pos] - psi_free_thin
        r = Kff @ u + load[free] + bc_term
        r[thin_pos] += areas * penalty(s, eps)
        return r

    r = residual(u)
    rnorm = np.linalg.norm(r)
    scale = max(np.linalg.norm(load[free] + bc_term), 1.0)
    it = 0
    for it in range(1, max_newton + 1):
        if rnorm <= tol * scale:
            break
        s = u[thin_pos] - psi_free_thin
        dpen = areas * penalty_derivative(s, eps)
        Jac = Kff + sp.csr_matrix(
            (dpen, (thin_pos, thin_pos)), shape=Kff.shape
        )
        du = _linear_solve(Jac, -r, grid.n, rtol=cg_tol)
        if du is None:
            raise NonconvergedError(
                f"inner CG failed at Newton step {it}",
                last_iterate=None, final_residual=rnorm,
            )
        step = 1.0
        for _ in range(30):
            u_try = u + step * du
            r_try = residual(u_try)
            if np.linalg.norm(r_try) < rnorm:
                break
            step *= 0.5
        else:
            raise NonconvergedError(
                "Newton stagnation in penalized solve",
                last_iterate=None, final_residual=rnorm,
            )
        u, r = u_try, r_try
        rnorm = np.linalg.norm(r)
    else:
        raise NonconvergedError(
            f"penalized Newton did not converge in {max_newton} steps",
            last_iterate=None, final_residual=rnorm,
        )

    U[free_idx] = u
    Un = U.reshape(grid.node_shape)
    act_tol = 2.0 * eps * (1.0 + np.abs(problem.psi).max())
    active = (Un[..., 0] - problem.psi) <= act_tol
    return SolutionField(
        U=Un,
        active=active,
        trace=neumann_trace(grid, Un, problem.a),
        iterations=it,
        final_residual=float(rnorm),
        tol=tol,
        method=f"penalized(eps={eps:g})",
    )


# ---------------------------------------------------------------------------
# complementarity certification
# ---------------------------------------------------------------------------


def complementarity_report(sol: SolutionField, problem: ProblemSpec, form: SymmetricForm) -> dict:
    """KKT gap statistics on the thin set.

    Uses the discrete conormal multiplier lambda = (KU + load) at thin
    rows (the weak form of -d_y^a U against the hat functions): both
    min(U - psi, lambda) and (U - psi) * lambda vanish at an exact
    discrete solution, so PSOR at tolerance tol certifies both gaps at
    O(tol) without any discretization-error floor.
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
