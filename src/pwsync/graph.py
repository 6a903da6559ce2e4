"""Weighted undirected network topologies and Laplacian spectral quantities.

The coupling strength certified elsewhere always enters through the
algebraic connectivity (second-smallest Laplacian eigenvalue), so that
number gets a dedicated accessor that also checks the graph is connected.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "GraphError",
    "Topology",
    "Laplacian",
    "topology_from_edges",
    "ring_topology",
    "complete_topology",
    "load_edge_list",
    "random_connected",
    "build_laplacian",
    "is_connected",
    "lambda2",
]

_ATOL = 1e-12
_ZERO_EIG_TOL = 1e-9


class GraphError(ValueError):
    """Invalid topology or an ill-posed spectral query."""


@dataclass(frozen=True, eq=False)
class Topology:
    """Symmetric nonnegative weight matrix with a zero diagonal."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.array(self.weights, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise GraphError("weights must form a square matrix")
        if w.shape[0] < 1:
            raise GraphError("a topology needs at least one node")
        with np.errstate(over="ignore"):  # an overflowing row sum is rejected below
            row_sums = w.sum(axis=1)
        if not np.isfinite(row_sums).all():
            raise GraphError("edge weights and every node's total weight must be finite")
        if not np.allclose(w, w.T, rtol=0.0, atol=_ATOL):
            raise GraphError("weights must be symmetric")
        if np.abs(np.diagonal(w)).max() > _ATOL:
            raise GraphError("self-loops are not allowed: diagonal must be zero")
        if w.min() < 0.0:
            raise GraphError("edge weights must be nonnegative")
        w = 0.5 * (w + w.T)
        np.fill_diagonal(w, 0.0)
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def n_nodes(self) -> int:
        return self.weights.shape[0]

    def scaled(self, factor: float) -> "Topology":
        """Topology with every edge weight multiplied by ``factor`` (> 0)."""
        if factor <= 0.0:
            raise GraphError("scale factor must be positive")
        return Topology(self.weights * factor)


@dataclass(eq=False)
class Laplacian:
    """Graph Laplacian: row sums on the diagonal, minus weights elsewhere."""

    matrix: np.ndarray

    @property
    def n_nodes(self) -> int:
        return self.matrix.shape[0]


def topology_from_edges(n_nodes: int, edges, default_weight: float = 1.0) -> Topology:
    """Build a topology from (i, j) or (i, j, weight) tuples, zero-based."""
    w = np.zeros((n_nodes, n_nodes))
    for edge in edges:
        if len(edge) == 2:
            i, j = edge
            weight = default_weight
        else:
            i, j, weight = edge
        i, j = int(i), int(j)
        if i == j:
            raise GraphError(f"self-loop on node {i}")
        if not (0 <= i < n_nodes and 0 <= j < n_nodes):
            raise GraphError(f"edge ({i}, {j}) outside 0..{n_nodes - 1}")
        if w[i, j] != 0.0:
            raise GraphError(f"duplicate edge ({i}, {j})")
        if weight <= 0.0:
            raise GraphError(f"edge ({i}, {j}) needs a positive weight")
        w[i, j] = w[j, i] = float(weight)
    return Topology(w)


def ring_topology(n_nodes: int, weight: float = 1.0) -> Topology:
    """Undirected cycle on ``n_nodes`` nodes."""
    if n_nodes < 3:
        raise GraphError("a ring needs at least three nodes")
    edges = [(i, (i + 1) % n_nodes, weight) for i in range(n_nodes)]
    return topology_from_edges(n_nodes, edges)


def complete_topology(n_nodes: int, weight: float = 1.0) -> Topology:
    """All-to-all coupling with a common weight."""
    w = np.full((n_nodes, n_nodes), float(weight))
    np.fill_diagonal(w, 0.0)
    return Topology(w)


def load_edge_list(path) -> Topology:
    """Read a whitespace edge list: ``i j [weight]`` per line, zero-based.

    Blank lines and ``#`` comments are skipped; the node count is one plus
    the largest index seen.
    """
    path = Path(path)
    edges = []
    max_index = -1
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            raise GraphError(f"{path}:{lineno}: expected 'i j [weight]', got {raw!r}")
        try:
            i, j = int(parts[0]), int(parts[1])
            weight = float(parts[2]) if len(parts) == 3 else 1.0
        except ValueError as exc:
            raise GraphError(f"{path}:{lineno}: {exc}") from exc
        edges.append((i, j, weight))
        max_index = max(max_index, i, j)
    if max_index < 1:
        raise GraphError(f"{path}: no edges found")
    return topology_from_edges(max_index + 1, edges)


def random_connected(n_nodes: int, p: float, seed: int, max_tries: int = 1000) -> Topology:
    """Seeded Erdős–Rényi draw with unit weights, retried until connected."""
    if not 0.0 < p <= 1.0:
        raise GraphError("edge probability must lie in (0, 1]")
    if n_nodes < 2:
        raise GraphError("need at least two nodes")
    rng = np.random.default_rng(seed)
    iu = np.triu_indices(n_nodes, 1)
    for _ in range(max_tries):
        w = np.zeros((n_nodes, n_nodes))
        w[iu] = (rng.random(len(iu[0])) < p).astype(float)
        w = w + w.T
        topo = Topology(w)
        if is_connected(topo):
            return topo
    raise GraphError(f"no connected draw in {max_tries} tries (n={n_nodes}, p={p})")


def build_laplacian(topo: Topology) -> Laplacian:
    """Laplacian of a topology; rows sum to zero by construction."""
    w = topo.weights
    lap = np.diag(w.sum(axis=1)) - w
    lap.setflags(write=False)
    return Laplacian(lap)


def is_connected(topo: Topology) -> bool:
    """Breadth-first reachability over positive-weight edges."""
    w = topo.weights
    n = topo.n_nodes
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    frontier = [0]
    while frontier:
        i = frontier.pop()
        neighbors = np.nonzero(w[i] > 0.0)[0]
        for j in neighbors:
            if not seen[j]:
                seen[j] = True
                frontier.append(int(j))
    return bool(seen.all())


def lambda2(lap: Laplacian) -> float:
    """Algebraic connectivity: second-smallest Laplacian eigenvalue.

    Raises GraphError when the graph is disconnected (zero algebraic
    connectivity) or the structural zero eigenvalue is lost to numerical
    noise.
    """
    if lap.n_nodes < 2:
        raise GraphError("algebraic connectivity needs at least two nodes")
    evals = np.linalg.eigvalsh(lap.matrix)
    if abs(evals[0]) > _ZERO_EIG_TOL:
        raise GraphError(f"Laplacian lost its structural zero eigenvalue (got {evals[0]:.3e})")
    lam2 = float(evals[1])
    if lam2 < _ZERO_EIG_TOL:
        raise GraphError("graph is disconnected: algebraic connectivity is zero")
    return lam2
