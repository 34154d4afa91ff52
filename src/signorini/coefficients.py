"""Coefficient matrix A(x) = B(x) (+) 1, obstacle, source, boundary data.

B acts on the thin directions only and never depends on y; the extension
slot of A is identically 1 with zero coupling. Scalar data (obstacle,
source, boundary) is accepted as constants, polynomials, callables, or
tabulated values; the obstacle lives on the thin points x, the source
and the boundary data on the nodes (x, y). normalize_at changes the
coefficients alone to the thin variables in which B(x0) = I.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    InvalidCoefficientError,
    InvalidConfigurationError,
    OutOfDomainError,
)
from .grid import Grid, interpolate


# ---------------------------------------------------------------------------
# scalar field descriptions
# ---------------------------------------------------------------------------


def eval_scalar_spec(spec, points: np.ndarray) -> np.ndarray:
    """Evaluate a scalar description at points of shape (..., dim).

    Accepted forms: a number; {"poly": [[coef, [e1,...]], ...]} meaning
    sum coef * prod x_d^{e_d}; a callable taking (..., dim) coordinates.
    """
    points = np.asarray(points, dtype=float)
    if np.isscalar(spec) or isinstance(spec, (int, float)):
        return np.full(points.shape[:-1], float(spec))
    if isinstance(spec, dict) and "poly" in spec:
        out = np.zeros(points.shape[:-1])
        for coef, exps in spec["poly"]:
            term = np.full(points.shape[:-1], float(coef))
            for d, e in enumerate(exps):
                if e:
                    term = term * points[..., d] ** e
            out += term
        return out
    if callable(spec):
        return np.asarray(spec(points), dtype=float)
    raise InvalidConfigurationError(f"unrecognized scalar field description: {spec!r}")


def _thin_points(grid: Grid) -> np.ndarray:
    mesh = np.meshgrid(*grid.xs, indexing="ij")
    return np.stack(mesh, axis=-1)


def _node_points(grid: Grid) -> np.ndarray:
    mesh = grid.node_mesh()
    return np.stack(mesh, axis=-1)


# ---------------------------------------------------------------------------
# coefficient field
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoefficientField:
    """Symmetric uniformly elliptic thin-block coefficient b_ij(x).

    lam and Lam, the extreme eigenvalues of the table, are computed when
    first read."""

    n: int
    table: np.ndarray  # B at thin nodes, thin_shape + (n, n)
    lip: float
    _evaluator: object  # callable points (...,n) -> (...,n,n)

    @cached_property
    def _eig_range(self) -> tuple:
        eigs = np.linalg.eigvalsh(self.table)
        return float(eigs.min()), float(eigs.max())

    @property
    def lam(self) -> float:
        return self._eig_range[0]

    @property
    def Lam(self) -> float:
        return self._eig_range[1]

    def eval_B(self, points: np.ndarray) -> np.ndarray:
        """B at arbitrary thin points (..., n) -> (..., n, n)."""
        return self._evaluator(np.asarray(points, dtype=float))

    def eval_A(self, points: np.ndarray) -> np.ndarray:
        """Full (n+1)x(n+1) block matrix at thick points (..., n+1)."""
        points = np.asarray(points, dtype=float)
        B = self.eval_B(points[..., : self.n])
        A = np.zeros(points.shape[:-1] + (self.n + 1, self.n + 1))
        A[..., : self.n, : self.n] = B
        A[..., self.n, self.n] = 1.0
        return A

    @property
    def is_identity(self) -> bool:
        eye = np.eye(self.n)
        return bool(np.all(self.table == eye))


def build_coefficients(grid: Grid, description=None) -> CoefficientField:
    """Validate a coefficient description and compute ellipticity data.

    description: None or "identity"; an (n x n) nested list of scalar
    descriptions; a callable points->(...,n,n); or a tabulated array of
    shape thin_shape+(n,n).
    """
    n = grid.n
    pts = _thin_points(grid)

    if description is None or (isinstance(description, str) and description == "identity"):
        table = np.broadcast_to(np.eye(n), pts.shape[:-1] + (n, n)).copy()

        def ev(points):
            points = np.asarray(points, dtype=float)
            return np.broadcast_to(np.eye(n), points.shape[:-1] + (n, n)).copy()

        return CoefficientField(n=n, table=table, lip=0.0, _evaluator=ev)

    if callable(description):
        def ev(points):
            return np.asarray(description(np.asarray(points, dtype=float)), dtype=float)
        table = ev(pts)
    elif isinstance(description, np.ndarray):
        if description.shape != pts.shape[:-1] + (n, n):
            raise InvalidCoefficientError(
                f"tabulated coefficients must have shape {pts.shape[:-1] + (n, n)},"
                f" got {description.shape}"
            )
        table = description.astype(float)

        def ev(points):
            return interpolate(grid.xs, table, points)
    else:  # nested list of scalar specs
        entries = description
        if len(entries) != n or any(len(row) != n for row in entries):
            raise InvalidCoefficientError(f"coefficient description must be {n}x{n}")

        def ev(points):
            points = np.asarray(points, dtype=float)
            out = np.empty(points.shape[:-1] + (n, n))
            for i in range(n):
                for j in range(n):
                    out[..., i, j] = eval_scalar_spec(entries[i][j], points)
            return out

        table = ev(pts)

    if not np.all(np.isfinite(table)):
        raise InvalidCoefficientError("coefficient table contains non-finite entries")
    asym = np.abs(table - np.swapaxes(table, -1, -2)).max()
    if asym > 0.0:
        raise InvalidCoefficientError(f"coefficient matrix is asymmetric (max |b_ij-b_ji| = {asym:g})")

    # Lipschitz estimate: max finite-difference quotient over axis neighbors
    lip = 0.0
    for d in range(n):
        diff = np.diff(table, axis=d)
        if diff.size:
            norms = np.linalg.norm(diff.reshape(-1, n, n), ord=2, axis=(1, 2))
            lip = max(lip, float(norms.max()) / grid.hx)

    field = CoefficientField(n=n, table=table, lip=lip, _evaluator=ev)
    if field.lam <= 0.0:
        raise InvalidCoefficientError(
            f"coefficient matrix is not positive definite (min eig = {field.lam:g})")
    return field


def ellipticity_report(field: CoefficientField) -> tuple:
    """Stored (lambda, Lambda, lip); deterministic."""
    return (field.lam, field.Lam, field.lip)


# ---------------------------------------------------------------------------
# problem data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProblemSpec:
    """Weighted thin obstacle problem data on a grid (weight exponent grid.a)."""

    grid: Grid
    coeff: CoefficientField
    psi: np.ndarray  # obstacle on thin nodes, thin_shape
    f: np.ndarray  # source on nodes, node_shape
    boundary: np.ndarray  # Dirichlet values on nodes (used on the outer boundary)


def make_problem(
    grid: Grid,
    coeff: CoefficientField | None = None,
    psi=0.0,
    f=0.0,
    boundary=0.0,
) -> ProblemSpec:
    """Assemble a validated ProblemSpec from descriptions or tables.

    The obstacle is described over the thin points (..., n); the source
    and the boundary data over the nodes (..., n+1), so a source may
    depend on y.
    """
    if not (0.0 <= grid.a < 1.0):
        raise InvalidConfigurationError(f"the artifact restricts a to [0, 1), got a={grid.a}")
    if coeff is None:
        coeff = build_coefficients(grid, None)

    thin_pts = _thin_points(grid)
    node_pts = _node_points(grid)

    psi_arr = psi if isinstance(psi, np.ndarray) else eval_scalar_spec(psi, thin_pts)
    if psi_arr.shape != thin_pts.shape[:-1]:
        raise InvalidConfigurationError("obstacle table has wrong shape")

    f_arr = f if isinstance(f, np.ndarray) else eval_scalar_spec(f, node_pts)
    f_arr = np.broadcast_to(f_arr, grid.node_shape).copy()

    bnd_arr = boundary if isinstance(boundary, np.ndarray) else eval_scalar_spec(boundary, node_pts)
    bnd_arr = np.broadcast_to(bnd_arr, grid.node_shape).copy()

    for name, arr in (("obstacle", psi_arr), ("source", f_arr), ("boundary", bnd_arr)):
        if not np.all(np.isfinite(arr)):
            raise InvalidConfigurationError(f"{name} data contains non-finite values")

    return ProblemSpec(grid=grid, coeff=coeff, psi=psi_arr, f=f_arr, boundary=bnd_arr)


# ---------------------------------------------------------------------------
# normalization at a thin point
# ---------------------------------------------------------------------------


def normalize_at(grid: Grid, coeff: CoefficientField, x0) -> tuple:
    """Change thin variables so the coefficient matrix is I at x0.

    With S = B(x0)^{1/2}, returns (coefficients, S): the thin block of the
    coordinates x -> x0 + S x is S^{-1} B(x0 + S x) S^{-1}, the identity at
    the origin, tabulated on the grid's thin nodes. Fields are not
    resampled: FieldSampler samples them in this frame.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if np.any(np.abs(x0) > grid.R + 1e-12):
        raise OutOfDomainError(f"normalization point {x0} outside the box")

    B0 = np.atleast_2d(coeff.eval_B(x0))
    w, V = np.linalg.eigh(B0)
    if w.min() <= 0:
        raise InvalidCoefficientError("coefficient matrix not positive definite at x0")
    S = (V * np.sqrt(w)) @ V.T
    S_inv = (V / np.sqrt(w)) @ V.T
    base_ev = coeff.eval_B
    n = grid.n
    # row-major vec(S^-1 B S^-1) = kron(S^-1, S^-1^T) vec(B): one product per batch
    congruence = np.kron(S_inv, S_inv.T).T

    def new_ev(points):
        B = base_ev(x0 + np.asarray(points, dtype=float) @ S.T)
        return (B.reshape(-1, n * n) @ congruence).reshape(B.shape)

    normalized = CoefficientField(
        n=grid.n,
        table=new_ev(_thin_points(grid)),
        lip=coeff.lip * float(np.linalg.norm(S_inv, 2)) ** 2 * float(np.linalg.norm(S, 2)),
        _evaluator=new_ev,
    )
    return normalized, S
