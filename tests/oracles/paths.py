"""The path oracle before it knew about stub domains (parent of issue 15).

One full single-source row per source, the symmetry swap, LRU eviction and
the same counters — what ``PathOracle`` must still look like from outside
however little of a row it actually computes.  ``dijkstra_arrays`` is the
pure-Python Dijkstra, a reference that shares no code with scipy's.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.net.graph import Graph
from repro.net.shortest_path import dijkstra_csr


def dijkstra_arrays(graph: Graph, source: int) -> Tuple[np.ndarray, np.ndarray]:
    """Binary-heap Dijkstra with lazy deletion over the frozen CSR of
    ``graph``: ``(dist, parent)`` as :func:`dijkstra_csr` returns them."""
    indptr, indices, weights = graph.csr()
    n = len(indptr) - 1
    dist = np.full(n, np.inf, dtype=np.float64)
    parent = np.full(n, -1, dtype=np.int64)
    dist[source] = 0.0
    heap: List[Tuple[float, int]] = [(0.0, source)]
    visited = np.zeros(n, dtype=bool)
    while heap:
        d, u = heapq.heappop(heap)
        if visited[u]:
            continue
        visited[u] = True
        for k in range(indptr[u], indptr[u + 1]):
            v = int(indices[k])
            nd = d + float(weights[k])
            if nd < dist[v]:
                dist[v] = nd
                parent[v] = u
                heapq.heappush(heap, (nd, v))
    return dist, parent


class FullRowOracle:
    """``PathOracle``'s observable behaviour over full ``dijkstra_csr`` rows.

    ``row`` replaces the row function (scipy's :func:`dijkstra_csr` by
    default); rows are memoised outside the modelled cache, so an evicted
    source costs the model nothing to bring back.
    """

    def __init__(
        self,
        graph: Graph,
        max_cached_sources: Optional[int] = None,
        row: Optional[Callable[[int], np.ndarray]] = None,
    ) -> None:
        self.max_cached_sources = max_cached_sources
        self._n = graph.num_vertices
        self._row = row if row is not None else lambda s: dijkstra_csr(graph, s)[0]
        self._rows: Dict[int, np.ndarray] = {}
        self.cached: "OrderedDict[int, None]" = OrderedDict()  # LRU, oldest first
        self.hits = self.misses = self.evictions = self.dijkstra_runs = 0

    def row(self, source: int) -> np.ndarray:
        if source not in self._rows:
            self._rows[source] = self._row(source)
        return self._rows[source]

    def _ensure(self, source: int) -> np.ndarray:
        if source in self.cached:
            self.hits += 1
        else:
            self.misses += 1
            self.dijkstra_runs += 1
            if (
                self.max_cached_sources is not None
                and len(self.cached) >= self.max_cached_sources
            ):
                self.cached.popitem(last=False)
                self.evictions += 1
            self.cached[source] = None
        self.cached.move_to_end(source)
        return self.row(source)

    def distance(self, u: int, v: int) -> float:
        if u == v:
            return 0.0
        if v in self.cached and u not in self.cached:
            u, v = v, u
        return float(self._ensure(u)[v])

    def distances_from(self, source: int) -> np.ndarray:
        return self._ensure(source)

    def distances_many(self, sources: Sequence[int]) -> np.ndarray:
        if not sources:
            return np.empty((0, self._n), dtype=np.float64)
        distinct = list(dict.fromkeys(sources))
        # Hits are promoted before any miss is stored.
        for s in [s for s in distinct if s in self.cached] + [
            s for s in distinct if s not in self.cached
        ]:
            self._ensure(s)
        return np.stack([self.row(s) for s in sources])

    def prewarm(self, sources: Iterable[int]) -> int:
        before = self.dijkstra_runs
        self.distances_many(list(dict.fromkeys(sources)))
        return self.dijkstra_runs - before

    def route_costs(self, pairs: Sequence[Tuple[int, int]]) -> np.ndarray:
        swapped = [
            (v, u) if v in self.cached and u not in self.cached else (u, v)
            for u, v in pairs
        ]
        self.distances_many(list(dict.fromkeys(u for u, _ in swapped)))
        return np.asarray([self.row(u)[v] for u, v in swapped], dtype=np.float64)

    def counters(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "dijkstra_runs": self.dijkstra_runs,
        }


def whole_graph_rows(graph: Graph, sources: Iterable[int]) -> np.ndarray:
    """Rows of ``sources`` from one multi-source ``csgraph.dijkstra`` over
    the whole graph — how ``PathOracle.prewarm`` computed them before it
    pushed offsets down per-piece trees (needs scipy)."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra

    indptr, indices, weights = graph.csr()
    n = graph.num_vertices
    matrix = csr_matrix((weights, indices, indptr), shape=(n, n))
    rows: np.ndarray = dijkstra(matrix, directed=True, indices=list(sources))
    return rows
