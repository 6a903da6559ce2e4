"""The stage triples of the integrator, dense or over the edge list.

Every state-dependent term of :mod:`pwsync.sim` is one triple
kernel(x @ G) @ S on row states (B, 1, N·dim): a family's rest (its
gather blocks, kernel and scatter blocks, :func:`family_term`), and the
nonlinear coupling (the signed incidence x_j − x_i per directed edge and
component, η, and the scatter of c_b·w_ij to the receiving node,
:func:`coupling_term`).  G and S are dense block-diagonal and incidence
matrices while G's entries times the batch size are at most ``_DENSE``;
a larger term applies the same triple through the objects here instead:
the signed incidence and the scatter of c_b·w_ij over the edge list, or a
family's per-node gather and scatter blocks.  Each answers ``x @ G`` or
``y @ S`` on row states.  :func:`sparse_parts` reads off them how a
region's slopes and intercepts enter J_rᵀ and e_r, and :func:`summed`
adds those parts up per member.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

import numpy as np

from .graph import Topology

__all__ = ["Incidence", "EdgeScatter", "NodeGather", "NodeScatter", "sparse_parts", "summed",
           "coupling_term", "family_term"]

# most entries of a dense gather G times the batch size; past it a triple
# runs node by node and over the edge list (the measured crossover)
_DENSE = 32768


class Incidence:
    """``x @ G`` for the signed incidence over the edge list, x_j − x_i on
    each directed edge (i ← j): row states (B, 1, N·dim) -> (B, E, dim)."""

    __array_ufunc__ = None  # ndarray @ self defers to __rmatmul__

    def __init__(self, rows, cols, n_nodes):
        self.rows, self.cols, self.n_nodes = rows, cols, n_nodes

    def __rmatmul__(self, x):
        x = x.reshape(len(x), self.n_nodes, -1)
        return x.take(self.cols, axis=1) - x.take(self.rows, axis=1)


class EdgeScatter:
    """``y @ S`` over the edge list: c_b·Σ w·y over each node's edges, one
    gain per member, (B, E, dim) -> row states (B, 1, N·dim)."""

    __array_ufunc__ = None

    def __init__(self, weights, starts, gains):
        self.weights, self.starts, self.gains = weights, starts, gains

    def __rmatmul__(self, y):
        summed = np.add.reduceat(self.weights * y, self.starts, axis=1)
        return (self.gains * summed).reshape(len(y), 1, -1)


class NodeGather:
    """``x @ G`` with per-node gather blocks (n, dim, k) on the nodes
    ``idx``: row states (B, 1, N·dim) -> (B, n, 1, k)."""

    __array_ufunc__ = None

    def __init__(self, blocks, idx, n_nodes):
        self.blocks, self.idx, self.n_nodes = blocks, idx, n_nodes

    def __rmatmul__(self, x):
        return x.reshape(len(x), self.n_nodes, 1, -1)[:, self.idx] @ self.blocks


class NodeScatter:
    """``y @ S`` with per-node scatter blocks (n, k, dim) into the nodes
    ``idx``: (B, n, 1, k) -> row states (B, 1, N·dim)."""

    __array_ufunc__ = None

    def __init__(self, blocks, idx, n_nodes):
        self.blocks, self.idx, self.n_nodes = blocks, idx, n_nodes

    def __rmatmul__(self, y):
        out = np.zeros((len(y), self.n_nodes, 1, self.blocks.shape[-1]))
        out[:, self.idx] = y @ self.blocks
        return out.reshape(len(y), 1, -1)


def summed(part, values, width: int):
    """Per member, Σ values[entry]·weight into the slots of a row of
    ``width``, with ``part`` the (slots, entries, weights) of
    :func:`sparse_parts` and ``values`` (R, K): shape (R, width)."""
    slots, entries, weights = part
    rows = len(values)
    at = (np.arange(rows)[:, None] * width + slots).reshape(-1)
    return np.bincount(at, (values[:, entries] * weights).reshape(-1), rows * width).reshape(rows, width)


def sparse_parts(term, size: int):
    """How J_rᵀ and e_r of a node-by-node or edge-list triple follow from
    the slope s_k and intercept i_k of each gather entry k (in the order of
    ``x @ G`` flattened), read off its edge list or per-node blocks, never
    off a dense G or S: J_rᵀ gains s_k·G[p, k]·S[k, q] at the flat slot
    p·n + q, and e_r gains i_k·S[k, q] at q, each times the member's factor
    of S (the coupling's gains) when it has one.  Returns K, the (slots,
    entries, weights) of J_rᵀ and of e_r, and the factors or None."""
    gather, scatter = term.gather, term.scatter
    if isinstance(gather, Incidence):  # entry (edge i ← j, component): x_j − x_i, times w_ij into i
        dim = size // gather.n_nodes
        comp = np.arange(dim)
        into = (gather.rows[:, None] * dim + comp).reshape(-1, 1)
        reads = np.concatenate([(gather.cols[:, None] * dim + comp).reshape(-1, 1), into], axis=1)
        read_w = np.broadcast_to([1.0, -1.0], reads.shape)
        write_w = np.broadcast_to(scatter.weights, (len(gather.rows), dim)).reshape(-1, 1)
        scale = scatter.gains[:, 0, 0]
    else:  # entry (node, kernel column): that column of the node's gather block, row of its scatter
        n, dim, width = gather.blocks.shape
        into = np.broadcast_to((gather.idx[:, None] * dim + np.arange(dim))[:, None], (n, width, dim))
        reads = into = into.reshape(n * width, dim)
        read_w = gather.blocks.transpose(0, 2, 1).reshape(n * width, dim)
        write_w, scale = scatter.blocks.reshape(n * width, dim), None
    entries = np.arange(len(reads))[:, None]
    slots = reads[:, :, None] * size + into[:, None, :]
    jac = (slots.reshape(-1), np.broadcast_to(entries[:, :, None], slots.shape).reshape(-1),
           (read_w[:, :, None] * write_w[:, None, :]).reshape(-1))
    shift = (into.reshape(-1), np.broadcast_to(entries, into.shape).reshape(-1), write_w.reshape(-1))
    return len(reads), jac, shift, scale


class _Triple(NamedTuple):
    """A stage term kernel(x @ gather) @ scatter on row states (B, 1, N·dim),
    with an elementwise kernel that may declare its affine ``pieces`` (see
    :class:`pwsync.dynamics.NodeFamily`); a dense coupling's scatter is
    c_b·S̄, and its ``factors`` the row of gains c_b (1, B) and S̄."""

    gather: object
    kernel: Callable
    scatter: object
    factors: Optional[tuple] = None


def coupling_term(eta, topo: Topology, dim: int, gains: np.ndarray) -> _Triple:
    """The nonlinear coupling c_b·Σⱼ w_ij η(x_j − x_i) as a triple on row
    states (B, 1, N·dim), with η as its kernel.  The gather is the signed
    incidence and the scatter carries c_b·w_ij to the receiving node i:
    dense, one scatter per gain, while the gather's entries times the
    batch size are at most ``_DENSE``, else over the edge list sorted by
    receiving node (a node without edges gets a zero-weight self-loop, so
    each owns a sum)."""
    edges = topo.weights != 0.0
    isolated = np.flatnonzero(~edges.any(axis=1))
    edges[isolated, isolated] = True
    rows, cols = np.nonzero(edges)
    weights = topo.weights[rows, cols]
    n_nodes, n_edges = topo.n_nodes, rows.size
    if n_nodes * n_edges * dim * dim * gains.size > _DENSE:
        starts = np.flatnonzero(np.diff(rows, prepend=-1))
        return _Triple(Incidence(rows, cols, n_nodes), eta,
                       EdgeScatter(weights[:, None], starts, gains[:, None, None]))
    edge = np.arange(n_edges)
    incidence = np.zeros((n_nodes, n_edges))
    incidence[cols, edge] += 1.0
    incidence[rows, edge] -= 1.0
    scatter = np.zeros((n_edges, n_nodes))
    scatter[edge, rows] = weights
    eye = np.eye(dim)
    bare = np.kron(scatter, eye)
    return _Triple(np.kron(incidence, eye), eta, gains[:, None, None] * bare, (gains[None], bare))


def family_term(family, q, idx, n_nodes: int, sgn, batch: int) -> _Triple:
    """A family's rest on the nodes ``idx`` as a triple on row states (B, 1,
    N·dim): block-diagonal matrices while the gather's entries times the
    batch size are at most ``_DENSE``, else the per-node blocks."""
    gather, scatter = family.gather(q), family.scatter(q)
    n, dim, width = gather.shape
    kernel = family.kernel(sgn)
    if n_nodes * dim * n * width * batch > _DENSE:
        return _Triple(NodeGather(gather, idx, n_nodes), kernel, NodeScatter(scatter, idx, n_nodes))
    pick = np.eye(n_nodes)[idx]
    return _Triple(np.einsum("im,idk->mdik", pick, gather).reshape(n_nodes * dim, n * width),
                   kernel, np.einsum("im,ikd->ikmd", pick, scatter).reshape(n * width, n_nodes * dim))
