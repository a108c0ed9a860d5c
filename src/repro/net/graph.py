"""A compact weighted undirected graph for the underlay network.

The experiments run shortest-path queries over topologies of 10k+ routers,
so the representation is optimised for Dijkstra: adjacency is stored in CSR
(compressed sparse row) NumPy arrays.  During construction edges are only
appended, as ``(u, v, w)`` columns one chunk per :meth:`Graph.add_edges`
call; :meth:`Graph.freeze` turns the columns into the CSR with one stable
``lexsort`` and releases them, and every query reads the CSR rows (before
``freeze`` a query builds them from the columns so far).

This is intentionally *not* networkx: the experiments only need weighted
adjacency plus Dijkstra, and a flat CSR layout is several times faster in
the 10,000-route sweeps of Figure 7 (cache-friendly contiguous access, per
the hpc-parallel optimisation guidance).  The test suite cross-validates
shortest paths against networkx.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np
from numpy.typing import ArrayLike
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

__all__ = ["Graph"]

_Rows = Tuple[np.ndarray, np.ndarray, np.ndarray]
_NO_EDGES: _Rows = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), np.empty(0))


class Graph:
    """Weighted undirected multigraph-free graph with CSR freezing.

    Vertices are dense integers ``0..n-1`` created via :meth:`add_vertex`.
    Edge weights must be finite and positive (Dijkstra precondition).  After
    topology construction call :meth:`freeze`; mutation afterwards raises.
    """

    def __init__(self) -> None:
        #: edges added so far as ``(u, v, w)`` column chunks; emptied by :meth:`freeze`
        self._pending: List[_Rows] = []
        #: CSR ``(indptr, indices, weights)`` of every edge added so far,
        #: neighbour ids ascending per row; ``None`` until a query builds it
        self._rows: Optional[_Rows] = None
        self._frozen = False
        self._num_vertices = 0
        self._edge_count = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_vertex(self) -> int:
        """Create a new vertex; returns its id."""
        return self.add_vertices(1)[0]

    def add_vertices(self, count: int) -> List[int]:
        """Create ``count`` vertices; returns their ids."""
        self._check_mutable()
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        start = self._num_vertices
        self._num_vertices += count
        self._rows = None
        return list(range(start, start + count))

    def add_edge(self, u: int, v: int, weight: float) -> None:
        """Add (or overwrite) the undirected edge ``{u, v}``."""
        self.add_edges([u], [v], [weight])

    def add_edges(self, us: ArrayLike, vs: ArrayLike, weights: ArrayLike) -> None:
        """Add (or overwrite) the undirected edges ``{us[i], vs[i]}`` of
        weight ``weights[i]``; of several copies of one edge the last wins.

        Self-loops are rejected (they never help a shortest path and would
        complicate the transit-stub generator's invariants), and so is any
        weight that is not finite and positive.
        """
        self._check_mutable()
        u, v = np.array(us), np.array(vs)
        w = np.array(weights, dtype=np.float64)
        if not u.shape == v.shape == w.shape == (w.size,):
            raise ValueError("edge columns must be 1-D and of equal length")
        if w.size == 0:
            return
        if u.dtype.kind not in "iu" or v.dtype.kind not in "iu":
            raise TypeError("vertex ids must be integers")
        self._check_vertex(int(min(u.min(), v.min())))
        self._check_vertex(int(max(u.max(), v.max())))
        loops = u == v
        if loops.any():
            raise ValueError(f"self-loop on vertex {int(u[loops][0])} not allowed")
        ok = np.isfinite(w) & (w > 0)
        if not ok.all():
            raise ValueError(f"edge weight must be finite and positive, got {w[~ok][0]}")
        self._pending.append((u.astype(np.int64), v.astype(np.int64), w))
        self._rows = None

    def freeze(self) -> None:
        """Build the CSR arrays, release the edge columns and forbid
        further mutation."""
        if self._frozen:
            return
        self._csr_rows()
        self._pending = []
        self._frozen = True

    def _csr_rows(self) -> _Rows:
        """The CSR of the edges added so far, built once per mutation.

        Edge ``i``'s two arcs sit at ``2i`` and ``2i + 1``, so the stable
        ``lexsort`` by (tail, head) keeps insertion order among copies of
        an arc and the last copy of each is the one kept.
        """
        if self._rows is None:
            n = self._num_vertices
            u, v, w = (np.concatenate(col) for col in zip(_NO_EDGES, *self._pending))
            tails = np.column_stack((u, v)).ravel()
            heads = np.column_stack((v, u)).ravel()
            order = np.lexsort((heads, tails))
            tails, heads, arc_w = tails[order], heads[order], np.repeat(w, 2)[order]
            last = np.ones(tails.size, dtype=bool)
            last[:-1] = (tails[1:] != tails[:-1]) | (heads[1:] != heads[:-1])
            indptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(np.bincount(tails[last], minlength=n), out=indptr[1:])
            self._rows = (indptr, heads[last], arc_w[last])
            self._edge_count = int(last.sum()) // 2
        return self._rows

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return self._num_vertices

    @property
    def num_edges(self) -> int:
        self._csr_rows()
        return self._edge_count

    @property
    def frozen(self) -> bool:
        return self._frozen

    def _nbrs(self, u: int) -> Dict[int, float]:
        """``{neighbour: weight}`` of ``u``, ids ascending, from its CSR row."""
        self._check_vertex(u)
        indptr, indices, weights = self._csr_rows()
        lo, hi = indptr[u], indptr[u + 1]
        return dict(zip(indices[lo:hi].tolist(), weights[lo:hi].tolist()))

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
        yield from self._nbrs(u).items()

    def edges(self) -> Iterator[Tuple[int, int, float]]:
        """Iterate each undirected edge once as ``(u, v, weight)``, u < v,
        in ascending ``(u, v)`` order."""
        for u in range(self._num_vertices):
            for v, w in self._nbrs(u).items():
                if u < v:
                    yield u, v, w

    def csr(self) -> _Rows:
        """Return the frozen ``(indptr, indices, weights)`` arrays."""
        if not self._frozen:
            raise RuntimeError("graph must be frozen before CSR access")
        return self._csr_rows()

    def total_weight(self) -> float:
        """Sum of all edge weights."""
        return sum(w for _, _, w in self.edges())

    def is_connected(self) -> bool:
        """One connected component (the empty graph counts as connected)."""
        n = self._num_vertices
        if n == 0:
            return True
        indptr, indices, weights = self._csr_rows()
        matrix = csr_matrix((weights, indices, indptr), shape=(n, n))
        count: int = connected_components(matrix, directed=False, return_labels=False)
        return count == 1

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _check_vertex(self, u: int) -> None:
        if not 0 <= u < self._num_vertices:
            raise IndexError(f"vertex {u} out of range [0, {self._num_vertices})")

    def _check_mutable(self) -> None:
        if self._frozen:
            raise RuntimeError("graph is frozen; no further mutation allowed")
