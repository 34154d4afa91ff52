"""Shared fixtures: cached solves of standard test problems."""

import contextlib
import dataclasses
import math
import multiprocessing
import os
import signal
from functools import lru_cache

import numpy as np
import pytest

import signorini as sg
import signorini.solver as solver_mod
from signorini.errors import InvalidParameterError
from signorini.grid import _layer_transmissibilities, _weighted_layer_integrals


# the benchmark's tilted B: off-diagonal, so K is not an M-matrix
TILTED_B = [[{"poly": [[1.0, [0, 0]], [0.1, [0, 1]]]}, {"poly": [[0.25, [0, 0]], [0.1, [1, 0]]]}],
            [{"poly": [[0.25, [0, 0]], [0.1, [1, 0]]]}, 1.0]]


def profile_boundary(grid, a: float, mix: float = 0.0) -> np.ndarray:
    """Boundary data of the regular contact profile, optionally mixed with
    the next Signorini-compatible homogeneous mode (a=0 only)."""
    pts = np.stack(grid.node_mesh(), axis=-1)
    ref = sg.exact_solution("signorini_profile", a)
    g = ref(pts)
    if mix:
        x1 = pts[..., 0]
        y = pts[..., -1]
        r = np.hypot(x1, y)
        th = np.arctan2(y, x1)
        g = g + mix * r**2.5 * np.cos(2.5 * th)
    return g


def angular_system(a: float, kappa: float | None = None) -> tuple:
    """The contact profile's angular equation ((sin t)^a phi')' + lam
    (sin t)^a phi = 0, lam = kappa (kappa + a), kappa = (3-a)/2 by default,
    as (rhs, lam, c2): rhs(t, z) of the first-order system in z = (phi,
    (sin t)^a phi'), and c2 of its series start phi ~ s^{1-a} (1 + c2 s^2)
    at the contact ray, s = pi - theta."""
    if kappa is None:
        kappa = (3 - a) / 2
    lam = kappa * (kappa + a)

    def rhs(t, z):
        return [z[1] / np.sin(t) ** a, -lam * np.sin(t) ** a * z[0]]

    return rhs, lam, (a * (1 - a) / 3 - lam) / (2 * (3 - a))


def angular_ode(a: float, kappa: float | None = None) -> tuple:
    """Test-local reference for the contact profile's angular factor:
    angular_system integrated by LSODA from s = 1e-6 (the series start) to
    s = pi - 1e-12, in s = pi - theta (the equation is symmetric under
    theta -> pi - theta). Returns (phi, defect): phi(s) the dense solution
    normalised to 1 at theta = 0, and defect the weighted derivative at
    theta = 0 relative to max |phi|, which vanishes only at the profile's
    kappa."""
    from scipy.integrate import solve_ivp

    rhs, _, c2 = angular_system(a, kappa)
    s0 = 1e-6
    z0 = [s0 ** (1 - a) + c2 * s0 ** (3 - a),
          np.sin(s0) ** a * ((1 - a) * s0 ** -a + c2 * (3 - a) * s0 ** (2 - a))]
    sol = solve_ivp(rhs, [s0, np.pi - 1e-12], z0, method="LSODA", rtol=1e-12, atol=1e-14,
                    dense_output=True)
    scale = sol.y[0, -1]
    return (lambda s: sol.sol(s)[0] / scale), abs(sol.y[1, -1]) / np.abs(sol.y[0]).max()


def graded_grid(n: int, h: float, a: float):
    """build_grid(n, 1, h, h, a) with the quadratically graded layers
    y_j = R (j/M)^2 in place of the uniform ones."""
    grid = sg.build_grid(n, 1.0, h, h, a)
    ys = grid.ys[-1] * (np.arange(len(grid.ys)) / (len(grid.ys) - 1)) ** 2
    return dataclasses.replace(grid, ys=ys, cell_y_weights=_weighted_layer_integrals(ys, a),
                               cell_y_trans=_layer_transmissibilities(ys, a))


def _linear(axes, values):
    """scipy's multilinear interpolant of a tensor-grid table, extrapolating
    linearly outside the box."""
    from scipy.interpolate import RegularGridInterpolator

    return RegularGridInterpolator(axes, values, method="linear", bounds_error=False,
                                   fill_value=None)


class ReferenceSampler:
    """Test-local reference for the field sampling of the fused sphere pass,
    as the per-rule path sampled before it: U at points in the frame
    (x0, S) (at (x0 + S p_x, p_y)), thin coordinates clamped to the box,
    multilinear by scipy, and u0 + (u1 - u0) (y/y1)^{1-a} in the first
    y-layer."""

    def __init__(self, grid, U, frame=None):
        self.grid, self.U, self.frame = grid, np.asarray(U, dtype=float), frame

    def mapped(self, points):
        """The points in U's coordinates, before the clamp."""
        pts = np.array(points, dtype=float, ndmin=2)
        if self.frame is not None:
            x0, S = self.frame
            pts[..., :self.grid.n] = x0 + pts[..., :self.grid.n] @ S.T
        return pts

    def clamped(self, points) -> bool:
        return bool((np.abs(self.mapped(points)[..., :self.grid.n]) > self.grid.R).any())

    def __call__(self, points):
        grid, n = self.grid, self.grid.n
        pts = self.mapped(points)
        pts[..., :n] = np.clip(pts[..., :n], -grid.R, grid.R)
        out = _linear(grid.xs + (grid.ys,), self.U)(pts)
        first = (pts[..., n] >= 0.0) & (pts[..., n] < grid.ys[1])
        if first.any():
            u0 = _linear(grid.xs, self.U[..., 0])(pts[first][:, :n])
            u1 = _linear(grid.xs, self.U[..., 1])(pts[first][:, :n])
            out[first] = u0 + (u1 - u0) * (pts[first][:, n] / grid.ys[1]) ** (1.0 - grid.a)
        return out


def reference_factors(grid, coeff, points, la_r: bool = False) -> tuple:
    """Test-local reference for (mu~, la_r / |y|^a) at the points X = (x, y),
    as the per-rule path computed them: mu~ = <A X, X>/|X|^2 summed over
    every (i, j), and la_r / |y|^a = (tr B + 1 + a)/r - <A X, X>/r^3 +
    sum_ij (d_i b_ij) x_j / r with the (n, n) table of central differences
    d_i b_ij interpolated (scipy)."""
    pts = np.asarray(points, dtype=float)
    n = grid.n
    x = pts[..., :n]
    B = coeff.eval_B(x)
    y2 = pts[..., n] ** 2
    axx = sum(B[..., i, j] * x[..., i] * x[..., j] for i in range(n) for j in range(n)) + y2
    r2 = sum(x[..., i] * x[..., i] for i in range(n)) + y2
    if not la_r:
        return axx / r2, None
    r = np.sqrt(r2)
    table = np.stack([np.gradient(coeff.table[..., i, :], grid.xs[i], axis=i)
                      for i in range(n)], axis=-2)
    db = _linear(grid.xs, table)(x)
    dbx = sum(db[..., i, j] * x[..., j] for i in range(n) for j in range(n))
    trB = sum(B[..., i, i] for i in range(n))
    return axx / r2, (trB + 1.0 + grid.a) / r - axx / r**3 + dbx / r


def normalized_field(grid, coeff, x0):
    """Test-local reference for the coefficients of the frame (x0, S), S =
    normalize_at(grid, coeff, x0), as the per-point path built them: a
    field on the frame's coordinates p whose thin block S^{-1} B(x0 + S p)
    S^{-1} is one product of B's row-major entries with kron(S^{-1},
    S^{-1}^T)^T, tabulated on the grid's thin nodes, so that its
    divergence table (and reference_factors') differences that table.
    It carries no Lipschitz bound (lip is nan)."""
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    S = sg.normalize_at(grid, coeff, x0)
    w, V = np.linalg.eigh(np.atleast_2d(coeff.eval_B(x0)))
    S_inv = (V / np.sqrt(w)) @ V.T
    n = grid.n
    congruence = np.kron(S_inv, S_inv.T).T

    def ev(points):
        X = np.asarray(points, dtype=float) @ S.T + x0
        B = coeff.eval_B(X)
        return (B.reshape(-1, n * n) @ congruence).reshape(B.shape)

    thin = np.stack(np.meshgrid(*grid.xs, indexing="ij"), axis=-1)
    return sg.CoefficientField(xs=grid.xs, table=ev(thin), lip=float("nan"), _evaluator=ev)


def reference_heights(U, grid, coeff, rules, la_r: bool = False, frame=None) -> tuple:
    """(H, L, clamped) per rule by the per-rule path: ReferenceSampler and
    reference_factors, rule by rule (L is None without la_r). In a frame,
    coeff holds the frame's coefficients (normalized_field)."""
    sampler = ReferenceSampler(grid, U, frame)
    H, L = [], []
    for rule in rules:
        u2 = sampler(rule.points) ** 2
        mu, lar = reference_factors(grid, coeff, rule.points, la_r)
        H.append(2.0 * rule.integrate(u2 * mu))
        if la_r:
            L.append(2.0 * rule.integrate(u2 * lar))
    clamped = np.array([sampler.clamped(rule.points) for rule in rules])
    return np.array(H), (np.array(L) if la_r else None), clamped


def _cpus(monkeypatch, k):
    """Make this process's affinity mask hold k CPUs, whatever the machine has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)), raising=False)


def _bitwise_equal(a, b) -> bool:
    """Equal structure and types, with floats and arrays equal to the bit."""
    if type(a) is not type(b):
        return False
    if dataclasses.is_dataclass(a):
        return _bitwise_equal(vars(a), vars(b))
    if isinstance(a, dict):
        return list(a) == list(b) and all(_bitwise_equal(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(_bitwise_equal, a, b))
    if isinstance(a, (float, np.ndarray, np.generic)):
        a, b = np.asarray(a), np.asarray(b)
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    return a == b


@contextlib.contextmanager
def _deadline(seconds: int):
    """Fail the block with TimeoutError, instead of hanging, after seconds."""
    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _no_child_process() -> bool:
    """True when this process has no child, running or exited unreaped: every
    worker forked was joined."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def psor_reference(form, problem, tol: float, start=None) -> np.ndarray:
    """Test-local reference, independent of the package's solver: projected
    SOR from start (zero if None) off the Dirichlet nodes, stopped when a sweep's largest
    update is at most tol. Sweeps go colour by colour, so that same-colour
    nodes never couple: a checkerboard on i+j at n = 1, four colours
    ((i+k) mod 2, (j+k) mod 2) at n = 2, which also separate the in-plane
    diagonal couplings of an off-diagonal thin coefficient. The relaxation
    is 2/(1 + sin(pi hy/R)), the SOR optimum for the model Laplacian.
    Returns U in node shape."""
    grid = form.grid
    K, load, free = form.stiffness, form.load, ~form.dirichlet
    thin = grid.thin_mask.ravel() & free
    psi = np.full(grid.n_nodes, -np.inf)
    psi[grid.thin_mask.ravel()] = problem.psi.ravel()
    omega = 2.0 / (1.0 + np.sin(np.pi * grid.hy / grid.R))
    idx = np.indices(grid.node_shape)
    if grid.n == 1:
        labels = (idx[0] + idx[1]) % 2
    else:
        labels = 2 * ((idx[0] + idx[2]) % 2) + ((idx[1] + idx[2]) % 2)
    blocks = []
    for color in np.unique(labels):
        ids = np.flatnonzero((labels.ravel() == color) & free)
        blocks.append((ids, K[ids], load[ids], K.diagonal()[ids], thin[ids], psi[ids]))
    U = np.where(form.dirichlet, problem.boundary.ravel(),
                 0.0 if start is None else np.ravel(start))
    for _ in range(100_000):
        delta = 0.0
        for ids, Kc, lc, dc, tc, pc in blocks:
            unew = U[ids] - omega * (Kc @ U + lc) / dc
            unew = np.where(tc, np.maximum(unew, pc), unew)
            delta = max(delta, np.abs(unew - U[ids]).max())
            U[ids] = unew
        if delta <= tol:
            return U.reshape(grid.node_shape)
    raise AssertionError(f"reference PSOR did not reach tol={tol:g}")


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


def penalized_reference(form, problem, eps: float, tol=None):
    """Test-local cross-check of the obstacle solve, its smooth
    penalization: damped Newton on K U + load + T' beta_eps(U - psi) = 0,
    beta_eps = penalty and T sampling the thin nodes scaled by thin cell
    area, from the unconstrained solution. Each step solves the Jacobian
    K + T' diag(beta_eps') T on the free nodes directly. Stops at a
    residual norm of tol (solve_active_set's default if None) times that
    of the unconstrained right-hand side. Complementarity holds only up
    to O(eps). Returns a SolutionField (no steps)."""
    import scipy.sparse as sp
    from scipy.sparse.linalg import spsolve

    if eps <= 0:
        raise InvalidParameterError(f"penalty width eps must be positive, got {eps}")
    grid, K, load, thin = form.grid, form.stiffness, form.load, form.thin_rows
    dirichlet, free = form.dirichlet, ~form.dirichlet
    tol = solver_mod._default_tol(problem, tol)
    # flat node index of a thin node is (thin ravel position) * ny
    areas = grid.thin_weighted(np.ones(grid.node_shape[:-1])).ravel()[thin // len(grid.ys)]
    psi = problem.psi.ravel()[thin // len(grid.ys)]

    def residual(U):
        r = K @ U + load
        r[thin] += areas * penalty(U[thin] - psi, eps)
        r[dirichlet] = 0.0
        return r

    def newton_step(J, r):
        dU = np.zeros(grid.n_nodes)
        dU[free] = -spsolve(J[free][:, free].tocsc(), r[free])
        return dU

    U = np.where(dirichlet, problem.boundary.ravel(), 0.0)
    r = np.where(dirichlet, 0.0, K @ U + load)
    scale = max(np.linalg.norm(r), 1.0)
    U += newton_step(K, r)
    r = residual(U)
    rnorm = np.linalg.norm(r)
    for it in range(1, 61):
        if rnorm <= tol * scale:
            break
        dpen = areas * penalty_derivative(U[thin] - psi, eps)
        dU = newton_step(K + sp.csr_matrix((dpen, (thin, thin)), shape=K.shape), r)
        step = 1.0
        for _ in range(30):
            U_try = U + step * dU
            r_try = residual(U_try)
            if np.linalg.norm(r_try) < rnorm:
                break
            step *= 0.5
        else:
            raise AssertionError("reference Newton stagnated")
        U, r = U_try, r_try
        rnorm = np.linalg.norm(r)
    else:
        raise AssertionError("reference Newton did not converge in 60 steps")
    Un = U.reshape(grid.node_shape)
    return sg.SolutionField(
        U=Un,
        active=Un[..., 0] - problem.psi <= 2.0 * eps * (1.0 + np.abs(problem.psi).max()),
        trace=sg.neumann_trace(grid, Un),
        iterations=it,
        final_residual=float(rnorm),
        tol=tol,
    )


def total_weighted_measure(grid) -> float:
    """Closed form int_box y^a dX = (2R)^n R^{1+a}/(1+a)."""
    return (2.0 * grid.R) ** grid.n * grid.R ** (1.0 + grid.a) / (1.0 + grid.a)


def _sine_power_integral(a: float) -> float:
    """int_0^pi (sin t)^a dt = sqrt(pi) Gamma((a+1)/2) / Gamma(a/2+1)."""
    return math.sqrt(math.pi) * math.gamma((a + 1.0) / 2.0) / math.gamma(a / 2.0 + 1.0)


def halfsphere_weighted_area(n: int, r: float, a: float) -> float:
    """Closed form int_{S_r^+} |y|^a dsigma."""
    if n == 1:
        return r ** (1.0 + a) * _sine_power_integral(a)
    return 2.0 * np.pi * r ** (2.0 + a) / (1.0 + a)


def ball_weighted_measure(n: int, r: float, a: float) -> float:
    """Closed form int_{B_r^+} y^a dX (upper half ball)."""
    # integrate the half-sphere area in the radius
    if n == 1:
        return _sine_power_integral(a) * r ** (2.0 + a) / (2.0 + a)
    return 2.0 * np.pi / (1.0 + a) * r ** (3.0 + a) / (3.0 + a)


def coverage_field(cells, cell_shape: tuple) -> np.ndarray:
    """A ball_cells result as a cell array: each cell's coverage fraction,
    zero off the ball."""
    cov = np.zeros(cell_shape)
    cov[cells.indices] = cells.fractions
    return cov


def Lam_of(field) -> float:
    """The largest eigenvalue of a CoefficientField's table (its lam is
    the smallest)."""
    return float(np.linalg.eigvalsh(field.table).max())


def homogeneous_functionals(kappa: float, n: int, a: float, H1: float) -> dict:
    """Predicted radial columns of a kappa-homogeneous field with A=I, f=0.

    H = H1 r^{n+a+2k}, I = D = k H / r, psi = r^{n+a}, sigma = r,
    M = H1 r^{2k}, J = k M / r, Phi = Ntilde = k,
    W = (k - (3-a)/2) H1 r^{2k-(3-a)}.
    """
    k = float(kappa)

    def H(r):
        return H1 * np.asarray(r, dtype=float) ** (n + a + 2 * k)

    cols = {
        "H": H,
        "D": lambda r: k * H(r) / np.asarray(r, dtype=float),
        "I": lambda r: k * H(r) / np.asarray(r, dtype=float),
        "psi": lambda r: np.asarray(r, dtype=float) ** (n + a),
        "sigma": lambda r: np.asarray(r, dtype=float),
        "M": lambda r: H1 * np.asarray(r, dtype=float) ** (2 * k),
        "J": lambda r: k * H1 * np.asarray(r, dtype=float) ** (2 * k - 1),
        "Phi": lambda r: np.full_like(np.asarray(r, dtype=float), k),
        "Ntilde": lambda r: np.full_like(np.asarray(r, dtype=float), k),
        "W": lambda r: (k - (3.0 - a) / 2.0)
        * H1
        * np.asarray(r, dtype=float) ** (2 * k - (3.0 - a)),
    }
    return cols


def apply_operator(form, U) -> np.ndarray:
    """Test-local weak-form residual KU + load, reshaped to the node grid."""
    r = form.stiffness @ np.asarray(U, dtype=float).ravel() + form.load
    return r.reshape(form.grid.node_shape)


def interior_mask(grid) -> np.ndarray:
    """The nodes neither on the Dirichlet boundary nor on the thin set."""
    return ~(grid.dirichlet_mask | grid.thin_mask)


def residual_l2(form, U) -> float:
    """Discrete L2 norm of the interior residual rows, sqrt(sum_i r_i^2
    hx^n hy) over interior_mask: the norm of the operator-consistency
    checks."""
    grid = form.grid
    ri = apply_operator(form, U)[interior_mask(grid)]
    return float(np.sqrt((ri**2).sum() * grid.thin_cell_area * grid.hy))


def energy(form, U) -> float:
    """Test-local objective of the discrete problem, 1/2 <KU,U> + <load,U>."""
    u = np.asarray(U, dtype=float).ravel()
    return float(0.5 * u @ (form.stiffness @ u) + form.load @ u)


def active_set_energies(form, problem, monkeypatch) -> list:
    """Energies of solve_active_set's iterates, one per finest-level linear
    solve, each projected onto U >= psi; the iterates are read by wrapping
    solver._linear_solve (the coarse levels' solves, made with a level, are
    left out)."""
    iterates = []
    solve = solver_mod._linear_solve

    def recording(*args, **kwargs):
        x, its = solve(*args, **kwargs)
        if kwargs.get("level", 0) == 0:
            iterates.append(x.copy())
        return x, its

    monkeypatch.setattr(solver_mod, "_linear_solve", recording)
    sg.solve_active_set(form, problem)
    monkeypatch.setattr(solver_mod, "_linear_solve", solve)
    thin = form.thin_rows
    psi = problem.psi.ravel()[thin // len(form.grid.ys)]
    for U in iterates:
        U[thin] = np.maximum(U[thin], psi)
    return [energy(form, U) for U in iterates]


@pytest.fixture(autouse=True)
def no_process_left():
    """No test leaves a child process running (the free-boundary report forks)."""
    yield
    assert multiprocessing.active_children() == []


@pytest.fixture(scope="session")
def n2_tilted_obstacle_solve():
    # the benchmark's tilted B under an elliptic obstacle at h = 1/16: 28
    # free-boundary points, 6 of them Unresolved, and a graph fit
    a = 0.5
    grid = sg.build_grid(2, 1.0, 1 / 16, 1 / 16, a)
    X1, X2, _ = grid.node_mesh()
    psi = 0.3 - X1[..., 0] ** 2 - 2 * X2[..., 0] ** 2
    problem = sg.make_problem(grid, coeff=sg.build_coefficients(grid, TILTED_B), psi=psi,
                              boundary=profile_boundary(grid, a))
    sol = sg.solve_active_set(sg.assemble_energy(grid, problem), problem, tol=1e-10)
    return problem, sol


@lru_cache(maxsize=32)
def solved_profile(a: float, h: float, mix: float = 0.0, b11_slope: float = 0.0):
    """Active-set solve with profile boundary data, zero obstacle and source."""
    grid = sg.build_grid(1, 1.0, h, h, a)
    coeff = None
    if b11_slope:
        coeff = sg.build_coefficients(grid, [[{"poly": [[1.0, [0]], [b11_slope, [1]]]}]])
    else:
        coeff = sg.build_coefficients(grid, None)
    g = profile_boundary(grid, a, mix)
    problem = sg.make_problem(grid, coeff=coeff, psi=0.0, f=0.0, boundary=g)
    form = sg.assemble_energy(grid, problem)
    sol = sg.solve_active_set(form, problem)
    return grid, problem, form, sol, g


@pytest.fixture(scope="session")
def profile_a0():
    return solved_profile(0.0, 1.0 / 96)


@pytest.fixture(scope="session")
def profile_a05():
    return solved_profile(0.5, 1.0 / 96)
