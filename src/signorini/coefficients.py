"""Coefficient matrix A(x) = B(x) (+) 1, obstacle, source, boundary data.

B acts on the thin directions only and never depends on y; the extension
slot of A is identically 1 with zero coupling. Scalar data (obstacle,
source, boundary) is accepted as constants, polynomials, callables, or
tabulated values; the obstacle lives on the thin points x, the source
and the boundary data on the nodes (x, y). normalize_at returns the
matrix S = B(x0)^{1/2} of the frame (x0, S): the thin variables p of
x = x0 + S p, in which the coefficient matrix is the identity at x0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from numbers import Integral, Real

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


def is_number(value, kind=Real) -> bool:
    """Whether value is an Integral or Real number (a bool is neither)."""
    return isinstance(value, kind) and not isinstance(value, bool)


def scalar_field(spec, dim: int):
    """The evaluator points (..., dim) -> (...) of a scalar description,
    checked once, here.

    Accepted forms: a real number (not a bool); {"poly": [[coef, [e1,...]],
    ...]} meaning sum coef * prod x_d^{e_d}, with a numeric coef and at
    most dim integer exponents; a callable taking (..., dim) coordinates.
    """
    if is_number(spec):
        return lambda points: np.full(points.shape[:-1], float(spec))
    if isinstance(spec, dict) and "poly" in spec:
        terms = spec["poly"]
        if not (isinstance(terms, (list, tuple)) and all(
                isinstance(t, (list, tuple)) and len(t) == 2 and is_number(t[0])
                and isinstance(t[1], (list, tuple)) and len(t[1]) <= dim
                and all(is_number(e, Integral) for e in t[1]) for t in terms)):
            raise InvalidConfigurationError(
                f"'poly' must list [number, [at most {dim} integers]] terms, got {terms!r}")

        def poly(points):
            out = 0.0
            for coef, exps in terms:
                term = float(coef)
                for d, e in enumerate(exps):
                    if e:
                        term = term * (points[..., d] if e == 1 else points[..., d] ** e)
                out = out + term
            return out if isinstance(out, np.ndarray) else np.full(points.shape[:-1], out)
        return poly
    if callable(spec):
        return lambda points: np.asarray(spec(points), dtype=float)
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

    lam, the smallest eigenvalue of the table, and the divergence table
    are computed when first read."""

    xs: tuple  # the grid's thin axes
    table: np.ndarray  # B at thin nodes, thin_shape + (n, n)
    lip: float
    _evaluator: object  # callable points (...,n) -> (...,n,n)

    @property
    def n(self) -> int:
        return len(self.xs)

    @cached_property
    def lam(self) -> float:
        return float(np.linalg.eigvalsh(self.table).min())

    @cached_property
    def divergence(self) -> np.ndarray:
        """(n,) + thin shape: for each j the scalar table sum_i d_i b_ij of
        the thin-node table, by central differences."""
        table, xs, n = self.table, self.xs, self.n
        return np.stack([sum(np.gradient(table[..., i, j], xs[i], axis=i) for i in range(n))
                         for j in range(n)])

    def eval_B(self, points: np.ndarray) -> np.ndarray:
        """B at arbitrary thin points (..., n) -> (..., n, n)."""
        return self._evaluator(np.asarray(points, dtype=float))

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

        return CoefficientField(xs=grid.xs, table=table, lip=0.0, _evaluator=ev)

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
        if not (isinstance(entries, (list, tuple)) and len(entries) == n
                and all(isinstance(row, (list, tuple)) and len(row) == n for row in entries)):
            raise InvalidCoefficientError(
                f"field 'coefficients' must be {n}x{n}, got {description!r}")

        try:
            fields = [[scalar_field(entry, n) for entry in row] for row in entries]
        except InvalidConfigurationError as exc:
            raise InvalidConfigurationError(f"field 'coefficients': {exc}") from None

        def ev(points):
            points = np.asarray(points, dtype=float)
            out = np.empty(points.shape[:-1] + (n, n))
            for i in range(n):
                for j in range(n):
                    out[..., i, j] = fields[i][j](points)
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

    field = CoefficientField(xs=grid.xs, table=table, lip=lip, _evaluator=ev)
    if field.lam <= 0.0:
        raise InvalidCoefficientError(
            f"coefficient matrix is not positive definite (min eig = {field.lam:g})")
    return field


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

    def values(name, spec, points):
        """A table as given, or a description's values at the points; a
        malformed description's message names its field."""
        if isinstance(spec, np.ndarray):
            return spec
        try:
            evaluate = scalar_field(spec, points.shape[-1])
        except InvalidConfigurationError as exc:
            raise InvalidConfigurationError(f"field '{name}': {exc}") from None
        return evaluate(points)

    psi_arr = values("obstacle", psi, thin_pts)
    if psi_arr.shape != thin_pts.shape[:-1]:
        raise InvalidConfigurationError("obstacle table has wrong shape")
    f_arr = np.broadcast_to(values("source", f, node_pts), grid.node_shape).copy()
    bnd_arr = np.broadcast_to(values("boundary", boundary, node_pts), grid.node_shape).copy()

    for name, arr in (("obstacle", psi_arr), ("source", f_arr), ("boundary", bnd_arr)):
        if not np.all(np.isfinite(arr)):
            raise InvalidConfigurationError(f"{name} data contains non-finite values")

    return ProblemSpec(grid=grid, coeff=coeff, psi=psi_arr, f=f_arr, boundary=bnd_arr)


# ---------------------------------------------------------------------------
# the frame at a thin point
# ---------------------------------------------------------------------------


def normalize_at(grid: Grid, coeff: CoefficientField, x0) -> np.ndarray:
    """S = B(x0)^{1/2}, the matrix of the frame (x0, S) at a thin point.

    In the thin coordinates p of x = x0 + S p the coefficient matrix is
    S^{-1} B(x0 + S p) S^{-1}, the identity at p = 0; the origin's frame
    is (0, I). Nothing is resampled or tabulated here: FieldSampler maps
    the sample points into the frame and functionals.frame_factors
    evaluates B there.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if np.any(np.abs(x0) > grid.R + 1e-12):
        raise OutOfDomainError(f"normalization point {x0} outside the box")

    w, V = np.linalg.eigh(np.atleast_2d(coeff.eval_B(x0)))
    if w.min() <= 0:
        raise InvalidCoefficientError("coefficient matrix not positive definite at x0")
    return (V * np.sqrt(w)) @ V.T
