"""A compact weighted undirected graph for the underlay network.

The experiments run shortest-path queries over topologies of 10k+ routers,
so the representation is optimised for Dijkstra: adjacency is stored in CSR
(compressed sparse row) NumPy arrays built once by :meth:`Graph.freeze`.
During construction a plain dict-of-dicts is used for O(1) edge updates;
``freeze`` releases it, and every query then reads the CSR rows.

This is intentionally *not* networkx: the experiments only need weighted
adjacency plus Dijkstra, and a flat CSR layout is several times faster in
the 10,000-route sweeps of Figure 7 (cache-friendly contiguous access, per
the hpc-parallel optimisation guidance).  The test suite cross-validates
shortest paths against networkx.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

import numpy as np

__all__ = ["Graph"]


class Graph:
    """Weighted undirected multigraph-free graph with CSR freezing.

    Vertices are dense integers ``0..n-1`` created via :meth:`add_vertex`.
    Edge weights must be positive (Dijkstra precondition).  After topology
    construction call :meth:`freeze`; mutation afterwards raises.
    """

    def __init__(self) -> None:
        #: construction-time adjacency; emptied by :meth:`freeze`
        self._adj: List[Dict[int, float]] = []
        self._frozen = False
        # CSR arrays, valid only when frozen (neighbour ids ascending per row):
        self._indptr: np.ndarray = np.zeros(1, dtype=np.int64)
        self._indices: np.ndarray = np.empty(0, dtype=np.int64)
        self._weights: np.ndarray = np.empty(0, dtype=np.float64)
        self._num_vertices = 0
        self._edge_count = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_vertex(self) -> int:
        """Create a new vertex; returns its id."""
        self._check_mutable()
        self._adj.append({})
        self._num_vertices += 1
        return self._num_vertices - 1

    def add_vertices(self, count: int) -> List[int]:
        """Create ``count`` vertices; returns their ids."""
        self._check_mutable()
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        start = self._num_vertices
        self._adj.extend({} for _ in range(count))
        self._num_vertices += count
        return list(range(start, start + count))

    def add_edge(self, u: int, v: int, weight: float) -> None:
        """Add (or overwrite) the undirected edge ``{u, v}``.

        Self-loops are rejected (they never help a shortest path and would
        complicate the transit-stub generator's invariants).
        """
        self._check_mutable()
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise ValueError(f"self-loop on vertex {u} not allowed")
        if weight <= 0:
            raise ValueError(f"edge weight must be positive, got {weight}")
        if v not in self._adj[u]:
            self._edge_count += 1
        self._adj[u][v] = float(weight)
        self._adj[v][u] = float(weight)

    def freeze(self) -> None:
        """Build the CSR arrays, release the construction dicts and forbid
        further mutation."""
        if self._frozen:
            return
        n = len(self._adj)
        degrees = np.fromiter((len(nbrs) for nbrs in self._adj), dtype=np.int64, count=n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])
        nnz = int(indptr[-1])
        indices = np.empty(nnz, dtype=np.int64)
        weights = np.empty(nnz, dtype=np.float64)
        pos = 0
        for u, nbrs in enumerate(self._adj):
            # Sorted neighbours make iteration order deterministic.
            for v in sorted(nbrs):
                indices[pos] = v
                weights[pos] = nbrs[v]
                pos += 1
        self._indptr, self._indices, self._weights = indptr, indices, weights
        self._adj = []
        self._frozen = True

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return self._num_vertices

    @property
    def num_edges(self) -> int:
        return self._edge_count

    @property
    def frozen(self) -> bool:
        return self._frozen

    def _nbrs(self, u: int) -> Dict[int, float]:
        """``{neighbour: weight}`` of ``u`` — the construction dict, or one
        made from ``u``'s CSR row (ids ascending) once frozen."""
        self._check_vertex(u)
        if not self._frozen:
            return self._adj[u]
        lo, hi = self._indptr[u], self._indptr[u + 1]
        return dict(zip(self._indices[lo:hi].tolist(), self._weights[lo:hi].tolist()))

    def has_edge(self, u: int, v: int) -> bool:
        """True when the undirected edge ``{u, v}`` exists."""
        self._check_vertex(v)
        return v in self._nbrs(u)

    def edge_weight(self, u: int, v: int) -> float:
        """Weight of edge ``{u, v}``; raises ``KeyError`` if absent."""
        self._check_vertex(v)
        return self._nbrs(u)[v]

    def degree(self, u: int) -> int:
        """Number of neighbours of ``u``."""
        return len(self._nbrs(u))

    def neighbors(self, u: int) -> Iterator[Tuple[int, float]]:
        """Iterate ``(neighbor, weight)`` pairs of ``u`` (sorted by id)."""
        nbrs = self._nbrs(u)
        for v in sorted(nbrs):
            yield v, nbrs[v]

    def edges(self) -> Iterator[Tuple[int, int, float]]:
        """Iterate each undirected edge once as ``(u, v, weight)``, u < v —
        in insertion order while under construction, ascending ``(u, v)``
        once frozen."""
        for u in range(self._num_vertices):
            for v, w in self._nbrs(u).items():
                if u < v:
                    yield u, v, w

    def csr(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return the frozen ``(indptr, indices, weights)`` arrays."""
        if not self._frozen:
            raise RuntimeError("graph must be frozen before CSR access")
        return self._indptr, self._indices, self._weights

    def total_weight(self) -> float:
        """Sum of all edge weights."""
        return sum(w for _, _, w in self.edges())

    def is_connected(self) -> bool:
        """BFS connectivity check (empty graph counts as connected)."""
        n = self.num_vertices
        if n == 0:
            return True
        seen = np.zeros(n, dtype=bool)
        stack = [0]
        seen[0] = True
        count = 1
        while stack:
            u = stack.pop()
            for v in self._nbrs(u):
                if not seen[v]:
                    seen[v] = True
                    count += 1
                    stack.append(v)
        return count == n

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _check_vertex(self, u: int) -> None:
        if not 0 <= u < self._num_vertices:
            raise IndexError(f"vertex {u} out of range [0, {self._num_vertices})")

    def _check_mutable(self) -> None:
        if self._frozen:
            raise RuntimeError("graph is frozen; no further mutation allowed")
