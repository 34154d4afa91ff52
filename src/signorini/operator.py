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

The stiffness is assembled by stencil offset: on the tensor grid every
pair of cell corners couples nodes at a fixed offset (5 offsets carry
terms at n=1, 27 at n=2), so the cell terms are summed into one array
column per offset by slicing the node grid, and the CSR arrays are read
off that array's nonzeros.
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


def _energy_terms(grid: Grid, problem: ProblemSpec) -> list:
    """The weighted energy's per-cell terms as triples (E, c, m): a cell's
    energy is sum c * m * u'Eu over its corner values u. Thin terms take
    c = b_dd (and b_01 at n = 2) at the thin cell centre and m the cell
    measure; the y term takes c = k_y * thin cell area and m = 1."""
    n = grid.n
    thin_E, cross_G, y_E = _local_matrices(n, grid.hx)
    centers = grid.cell_centers()
    thin_c = np.stack([centers[d] for d in range(n)], axis=-1)[..., 0, :]
    B = problem.coeff.eval_B(thin_c)  # thin cell-shape + (n, n)
    m_flat = grid.cell_measures.reshape(-1)

    def per_cell(b):  # broadcast a thin-cell entry over the y cell axis
        return np.repeat(b.reshape(-1), grid.cell_shape[-1])

    terms = [(thin_E[d], per_cell(B[..., d, d]), m_flat) for d in range(n)]
    if cross_G is not None:
        terms.append((cross_G, per_cell(B[..., 0, 1]), m_flat))
    ky = np.broadcast_to(grid.cell_y_trans, grid.cell_shape)
    terms.append((y_E, (ky * grid.thin_cell_area).reshape(-1), 1.0))
    return terms


def assemble_energy(grid: Grid, problem: ProblemSpec) -> SymmetricForm:
    """Assemble stiffness and load of the weighted energy.

    On the tensor grid a corner pair (p, q) couples every node with the
    node at the fixed offset c_q - c_p. Each pair's cell coefficients are
    added into that offset's column of an (n_nodes, n_offsets) array, on
    the slice of nodes that are the cells' p-corners, in the order of p;
    with the offsets sorted, the nonzero entries of each row are its CSR
    row.
    """
    if problem.grid is not grid and problem.grid.node_shape != grid.node_shape:
        raise AssemblyError("grid and problem have inconsistent shapes")
    terms = _energy_terms(grid, problem)
    corners = np.array(corner_offsets(grid.n))
    shape, cells = grid.node_shape, grid.cell_shape
    n_cells = int(np.prod(cells))
    strides = np.cumprod((1,) + shape[:0:-1])[::-1]  # of the flat node index
    pair_offset = {(p, q): (corners[q] - corners[p]) @ strides
                   for p in range(len(corners)) for q in range(len(corners))
                   if any(E[p, q] for E, _, _ in terms)}
    offsets = np.unique(list(pair_offset.values()))
    # pairs whose entries agree in every term share one coefficient array,
    # kept until its last pair
    keys = {pair: tuple(E[pair] for E, _, _ in terms) for pair in pair_offset}
    last = {key: pair for pair, key in keys.items()}
    coefs = {}
    acc = np.zeros((len(offsets),) + shape)
    for (p, q), offset in pair_offset.items():
        key = keys[p, q]
        if key not in coefs:
            coefs[key] = np.zeros(n_cells)
            for (E, c, m), e in zip(terms, key):
                if e:
                    coefs[key] += e * c * m
        column = np.searchsorted(offsets, offset)
        block = tuple(slice(o, o + s) for o, s in zip(corners[p], cells))
        acc[(column,) + block] += coefs[key].reshape(cells)
        if last[key] == (p, q):
            del coefs[key]
    acc = acc.reshape(len(offsets), grid.n_nodes).T
    nz = acc != 0.0  # the box faces' missing neighbours are zero too
    data = acc[nz]
    del acc
    counts = nz.sum(axis=1)
    idx = np.int32 if nz.size < 2**31 else np.int64
    indices = np.broadcast_to(offsets.astype(idx), nz.shape)[nz]
    del nz
    indices += np.repeat(np.arange(grid.n_nodes, dtype=idx), counts)
    indptr = np.r_[0, np.cumsum(counts)].astype(idx)
    K = sp.csr_matrix((data, indices, indptr), shape=(grid.n_nodes, grid.n_nodes))

    load = (grid.lumped_node_weights() * problem.f).ravel()

    dirichlet = grid.dirichlet_mask.ravel()
    thin_rows = np.where(grid.thin_mask.ravel() & ~dirichlet)[0]
    return SymmetricForm(grid=grid, stiffness=K, load=load, thin_rows=thin_rows, dirichlet=dirichlet)


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


def _corner_values(grid: Grid, U: np.ndarray) -> np.ndarray:
    """(n_cells, 2^{n+1}) values of U at each cell's corners, in the order
    of corner_offsets(n), stacked from corner slices of the node array."""
    U = np.asarray(U, dtype=float).reshape(grid.node_shape)
    corners = corner_offsets(grid.n)
    return np.stack([U[tuple(slice(o, o + s) for o, s in zip(corner, grid.cell_shape))]
                     for corner in corners], axis=-1).reshape(-1, len(corners))


def cell_energy_density(grid: Grid, problem: ProblemSpec, U: np.ndarray) -> np.ndarray:
    """Per-cell approximation of int_cell <A grad U, grad U> y^a dX.

    Uses exactly the assembly's quadratic form, so summing over all
    cells reproduces <KU, U> to round-off.
    """
    Uc = _corner_values(grid, U)
    e = np.zeros(len(Uc))
    for E, c, m in _energy_terms(grid, problem):
        e += c * m * ((Uc @ E) * Uc).sum(1)
    return e.reshape(grid.cell_shape)


def cell_average(grid: Grid, U: np.ndarray) -> np.ndarray:
    """Corner-average of a node field per cell."""
    return _corner_values(grid, U).mean(axis=1).reshape(grid.cell_shape)
