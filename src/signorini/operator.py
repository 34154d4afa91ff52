"""Discrete weighted energy form for div(y^a A(x) grad .) on the half box.

Assembly is energy-based (Galerkin on per-cell quadratic forms), so the
stiffness matrix is symmetric positive semidefinite by construction and
the obstacle problem below becomes a standard convex complementarity
problem. Thin-direction couplings use the exact weighted cell measures
with edge-averaged difference quotients; extension-direction couplings
use the layer transmissibilities (1-a)/(y_{j+1}^{1-a}-y_j^{1-a}), which
are exact on span{1, y^{1-a}} and therefore consistent with the
degenerate weight down to y=0 (at a=0 both reduce to the classical
5-point / 7-point stencil scaled by cell volume).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import AssemblyError
from .coefficients import ProblemSpec
from .grid import Grid, corner_offsets


@dataclass(frozen=True)
class SymmetricForm:
    """Stiffness + load of the discrete energy 1/2 <KU,U> + <load,U>."""

    grid: Grid
    stiffness: sp.csr_matrix
    load: np.ndarray  # flat, length n_nodes
    thin_rows: np.ndarray  # flat indices of thin non-Dirichlet unknowns
    dirichlet: np.ndarray  # flat bool mask

    @property
    def diag(self) -> np.ndarray:
        return self.stiffness.diagonal()


def _local_matrices(n: int, hx: float):
    """Constant local quadratic forms on the reference cell.

    Returns (thin_E[d], cross_G or None, y_E) where thin_E[d] is the
    edge-averaged squared difference quotient in thin direction d
    (1/hx^2 folded in), y_E the same for the extension direction without
    any h factor (the transmissibility carries it), and cross_G the
    symmetrized product of mean gradients for the (0,1) thin pair.
    """
    corners = corner_offsets(n)
    m = len(corners)
    index = {c: k for k, c in enumerate(corners)}

    def edge_pairs(axis):
        pairs = []
        for c in corners:
            if c[axis] == 0:
                q = list(c)
                q[axis] = 1
                pairs.append((index[c], index[tuple(q)]))
        return pairs

    def avg_sq(axis, scale):
        E = np.zeros((m, m))
        pairs = edge_pairs(axis)
        w = scale / len(pairs)
        for p, q in pairs:
            E[p, p] += w
            E[q, q] += w
            E[p, q] -= w
            E[q, p] -= w
        return E

    thin_E = [avg_sq(d, 1.0 / hx**2) for d in range(n)]
    y_E = avg_sq(n, 1.0)

    cross_G = None
    if n == 2:
        def mean_grad(axis):
            g = np.zeros(m)
            pairs = edge_pairs(axis)
            for p, q in pairs:
                g[q] += 1.0
                g[p] -= 1.0
            return g / (len(pairs) * hx)

        g0 = mean_grad(0)
        g1 = mean_grad(1)
        cross_G = np.outer(g0, g1) + np.outer(g1, g0)
    return thin_E, cross_G, y_E


def _cell_coefficients(grid: Grid, problem: ProblemSpec):
    """Per-cell scalars: weighted measure, b_ij at thin cell centers, k_j."""
    centers = grid.cell_centers()
    thin_c = np.stack([centers[d] for d in range(grid.n)], axis=-1)[..., 0, :]
    B = problem.coeff.eval_B(thin_c)  # thin cell-shape + (n, n)
    m_cell = grid.cell_measures
    ky = np.broadcast_to(grid.cell_y_trans, grid.cell_shape)
    return m_cell, B, ky


def assemble_energy(grid: Grid, problem: ProblemSpec) -> SymmetricForm:
    """Assemble stiffness and load of the weighted energy."""
    if problem.grid is not grid and problem.grid.node_shape != grid.node_shape:
        raise AssemblyError("grid and problem have inconsistent shapes")
    n = grid.n
    thin_E, cross_G, y_E = _local_matrices(n, grid.hx)
    corner_idx = grid.cell_corners
    m_cell, B, ky = _cell_coefficients(grid, problem)

    n_loc = corner_idx.shape[1]
    m_flat = m_cell.reshape(-1)
    ky_flat = (ky * grid.thin_cell_area).reshape(-1)
    # broadcast thin-block entries over the y cell axis
    b_entries = {}
    for d in range(n):
        b = B[..., d, d]
        b_entries[(d, d)] = np.repeat(b.reshape(-1), grid.cell_shape[-1])
    if n == 2:
        b01 = B[..., 0, 1]
        b_entries[(0, 1)] = np.repeat(b01.reshape(-1), grid.cell_shape[-1])

    rows, cols, vals = [], [], []
    for p in range(n_loc):
        for q in range(n_loc):
            coef = np.zeros(len(m_flat))
            for d in range(n):
                if thin_E[d][p, q]:
                    coef += thin_E[d][p, q] * b_entries[(d, d)] * m_flat
            if cross_G is not None and cross_G[p, q]:
                coef += cross_G[p, q] * b_entries[(0, 1)] * m_flat
            if y_E[p, q]:
                coef += y_E[p, q] * ky_flat
            nz = coef != 0.0
            if nz.any():
                rows.append(corner_idx[nz, p])
                cols.append(corner_idx[nz, q])
                vals.append(coef[nz])
    K = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(grid.n_nodes, grid.n_nodes),
    )
    K.sum_duplicates()

    load = (grid.lumped_node_weights() * problem.f).ravel()

    dirichlet = grid.dirichlet_mask.ravel()
    thin_rows = np.where(grid.thin_mask.ravel() & ~dirichlet)[0]
    return SymmetricForm(grid=grid, stiffness=K, load=load, thin_rows=thin_rows, dirichlet=dirichlet)


def apply_operator(form: SymmetricForm, U: np.ndarray) -> np.ndarray:
    """Weak-form residual KU + load, reshaped to the node grid."""
    r = form.stiffness @ np.asarray(U, dtype=float).ravel() + form.load
    return r.reshape(form.grid.node_shape)


def interior_mask(grid: Grid) -> np.ndarray:
    return ~(grid.dirichlet_mask | grid.thin_mask)


def residual_l2(form: SymmetricForm, U: np.ndarray) -> float:
    """Discrete L2 norm of the interior residual rows.

    sqrt(sum_i r_i^2 * hx^n * hy) over non-boundary, non-thin rows; the
    norm used by the operator-consistency checks.
    """
    grid = form.grid
    r = apply_operator(form, U)
    ri = r[interior_mask(grid)]
    return float(np.sqrt((ri**2).sum() * grid.thin_cell_area * grid.hy))


def neumann_trace(grid: Grid, U: np.ndarray) -> np.ndarray:
    """Weighted Neumann trace lim_{y->0+} y^a U_y at thin nodes.

    Discretized as (1-a)(U(.,y_1) - U(.,0))/y_1^{1-a}: the coefficient of
    y^{1-a} in the two-point fit through the first layer, times (1-a).
    Exact on U = c0 + c1 y^{1-a} for any ys; first order on smooth even
    fields; at a=0 it is the one-sided difference quotient. Positive when
    U grows off the thin set. Matches the natural flux of the assembled
    energy.
    """
    U = np.asarray(U, dtype=float)
    return (1.0 - grid.a) * (U[..., 1] - U[..., 0]) / grid.ys[1] ** (1.0 - grid.a)


# ---------------------------------------------------------------------------
# per-cell quadratures reused by the radial functionals
# ---------------------------------------------------------------------------


def cell_energy_density(grid: Grid, problem: ProblemSpec, U: np.ndarray) -> np.ndarray:
    """Per-cell approximation of int_cell <A grad U, grad U> y^a dX.

    Uses exactly the assembly's quadratic form, so summing over all
    cells reproduces <KU, U> to round-off.
    """
    n = grid.n
    thin_E, cross_G, y_E = _local_matrices(n, grid.hx)
    m_cell, B, ky = _cell_coefficients(grid, problem)
    Uc = np.asarray(U, dtype=float).ravel()[grid.cell_corners]  # (n_cells, n_loc)

    m_flat = m_cell.reshape(-1)
    e = np.zeros(len(m_flat))
    for d in range(n):
        quad = ((Uc @ thin_E[d]) * Uc).sum(1)
        b = np.repeat(B[..., d, d].reshape(-1), grid.cell_shape[-1])
        e += b * m_flat * quad
    if cross_G is not None:
        quad = ((Uc @ cross_G) * Uc).sum(1)
        b = np.repeat(B[..., 0, 1].reshape(-1), grid.cell_shape[-1])
        e += b * m_flat * quad
    quad_y = ((Uc @ y_E) * Uc).sum(1)
    e += (ky * grid.thin_cell_area).reshape(-1) * quad_y
    return e.reshape(grid.cell_shape)


def cell_average(grid: Grid, U: np.ndarray) -> np.ndarray:
    """Corner-average of a node field per cell."""
    return np.asarray(U, dtype=float).ravel()[grid.cell_corners].mean(axis=1).reshape(grid.cell_shape)


def energy(form: SymmetricForm, U: np.ndarray) -> float:
    """Objective 1/2 <KU,U> + <load,U>."""
    u = np.asarray(U, dtype=float).ravel()
    return float(0.5 * u @ (form.stiffness @ u) + form.load @ u)
