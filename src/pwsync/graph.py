"""Weighted undirected network topologies and Laplacian spectral quantities.

A :class:`Topology` holds a symmetric nonnegative weight matrix;
:func:`build_laplacian` turns it into the read-only Laplacian matrix.  The
coupling strength certified elsewhere always enters through the algebraic
connectivity (second-smallest Laplacian eigenvalue), so that number gets a
dedicated accessor, :func:`lambda2`, that also checks the graph is
connected.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "GraphError",
    "Topology",
    "topology_from_edges",
    "ring_topology",
    "complete_topology",
    "parse_edge_list",
    "load_edge_list",
    "random_connected",
    "build_laplacian",
    "is_connected",
    "lambda2",
]

_ATOL = 1e-12
# times n·eps·(the Laplacian's largest diagonal entry), the error of
# eigvalsh's eigenvalues; zero and λ₂ are judged against it
_ZERO_EIG_TOL = 16.0
_MAX_TRIES = 1000  # random draws before random_connected gives up


class GraphError(ValueError):
    """Invalid topology or an ill-posed spectral query."""


DISCONNECTED = "graph is disconnected: algebraic connectivity is zero"


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
        with np.errstate(over="ignore"):  # an overflowing sum or difference is refused
            if not np.isfinite(w.sum(axis=1)).all():
                raise GraphError("edge weights and every node's total weight must be finite")
            if np.abs(w - w.T).max() > _ATOL:
                raise GraphError("weights must be symmetric")
        if np.abs(w.diagonal()).max() > _ATOL:
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


def topology_from_edges(n_nodes: int, edges) -> Topology:
    """Build a topology from (i, j) or (i, j, weight) tuples, zero-based;
    an (i, j) edge has weight 1."""
    w = np.zeros((n_nodes, n_nodes))
    for edge in edges:
        if len(edge) == 2:
            i, j = edge
            weight = 1.0
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
    if n_nodes < 2:
        raise GraphError("a complete graph needs at least two nodes")
    w = np.full((n_nodes, n_nodes), float(weight))
    np.fill_diagonal(w, 0.0)
    return Topology(w)


def parse_edge_list(text: str, source: str) -> Topology:
    """Parse ``i j [weight]`` entries, zero-based, one per line or separated
    by commas.

    Blank entries and ``#`` comments are skipped; the node count is one
    plus the largest index seen.  Every error message starts with
    ``source``.
    """
    edges = []
    max_index = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        for entry in raw.split("#", 1)[0].split(","):
            parts = entry.split()
            if not parts:
                continue
            if len(parts) not in (2, 3):
                raise GraphError(f"{source}:{lineno}: expected 'i j [weight]', got {entry.strip()!r}")
            try:
                i, j = int(parts[0]), int(parts[1])
                weight = float(parts[2]) if len(parts) == 3 else 1.0
            except ValueError as exc:
                raise GraphError(f"{source}:{lineno}: {exc}") from exc
            edges.append((i, j, weight))
            max_index = max(max_index, i, j)
    if max_index < 1:
        raise GraphError(f"{source}: no edges found")
    try:
        return topology_from_edges(max_index + 1, edges)
    except GraphError as exc:
        raise GraphError(f"{source}: {exc}") from exc


def load_edge_list(path) -> Topology:
    """Read a UTF-8 edge-list file in the format of ``parse_edge_list``."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise GraphError(f"{path}: not UTF-8 text ({exc})") from exc
    return parse_edge_list(text, str(path))


def random_connected(n_nodes: int, p: float, seed: int) -> Topology:
    """Seeded Erdős–Rényi draw with unit weights, retried until connected."""
    if not 0.0 < p <= 1.0:
        raise GraphError("edge probability must lie in (0, 1]")
    if n_nodes < 2:
        raise GraphError("need at least two nodes")
    rng = np.random.default_rng(seed)
    upper = ~np.tri(n_nodes, dtype=bool)  # filled row by row, as np.triu_indices orders it
    for _ in range(_MAX_TRIES):
        w = np.zeros((n_nodes, n_nodes))
        w[upper] = rng.random(n_nodes * (n_nodes - 1) // 2) < p
        topo = Topology(w + w.T)
        if is_connected(topo):
            return topo
    raise GraphError(f"no connected draw in {_MAX_TRIES} tries (n={n_nodes}, p={p})")


def build_laplacian(topo: Topology) -> np.ndarray:
    """Read-only Laplacian matrix of a topology: row sums on the diagonal,
    minus weights elsewhere, so rows sum to zero by construction."""
    w = topo.weights
    lap = np.diag(w.sum(axis=1)) - w
    lap.setflags(write=False)
    return lap


def is_connected(topo: Topology) -> bool:
    """Breadth-first reachability over positive-weight edges, one frontier
    of nodes per step."""
    adjacent = topo.weights > 0.0
    seen = np.zeros(topo.n_nodes, dtype=bool)
    seen[0] = True
    frontier = seen.copy()
    while frontier.any():
        frontier = adjacent[frontier].any(axis=0) & ~seen
        seen |= frontier
    return bool(seen.all())


def lambda2(lap: np.ndarray) -> float:
    """Algebraic connectivity: second-smallest eigenvalue of a Laplacian
    matrix.

    Raises GraphError when the graph is disconnected (zero algebraic
    connectivity) or the structural zero eigenvalue is lost to numerical
    noise.  Both are judged against eigvalsh's own error, 16·n·eps times
    the Laplacian's largest diagonal entry, so scaling every weight scales
    λ₂ and keeps the verdict, and weights that span many orders of
    magnitude still resolve a small λ₂.
    """
    if lap.shape[0] < 2:
        raise GraphError("algebraic connectivity needs at least two nodes")
    evals = np.linalg.eigvalsh(lap)
    tol = _ZERO_EIG_TOL * len(lap) * np.finfo(float).eps * float(lap.diagonal().max())
    if abs(evals[0]) > tol:
        raise GraphError(f"Laplacian lost its structural zero eigenvalue (got {evals[0]:.3e})")
    lam2 = float(evals[1])
    if not lam2 > tol:
        raise GraphError(DISCONNECTED)
    return lam2
