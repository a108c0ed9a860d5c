"""Shortest-path machinery: Dijkstra per source, one stub domain at a time.

The paper's path-cost metric (§4.1) charges each application-level hop the
*shortest-path weight* between the two endpoints' attachment points, and
Figure 9's LDT edge cost is likewise "the minimal sum of path weights for
the network links assembling the edge".  Experiments therefore issue very
many point-to-point distance queries against a static topology, from a
source set that is sometimes known up front (the figure sweeps) and
sometimes not (a fresh network answering its first routes).

:class:`PathOracle` serves both.  A sweep that knows its sources asks for
*full rows* (:meth:`PathOracle.prewarm`, :meth:`PathOracle.distances_many`,
:meth:`PathOracle.route_costs`): one multi-source ``csgraph.dijkstra`` call
over the whole graph, then array reads.  A cold :meth:`PathOracle.distance`
instead exploits the transit-stub shape — a stub domain hangs off the
backbone by exactly one gateway edge, so every path into it crosses that
gateway — and runs Dijkstra only on the pieces the query touches: the
source's own domain, the *skeleton* (core routers plus every gateway with
its gateway edge) and the target's domain, the last two seeded with the
distance already known at their entry vertex.  Float ``+`` is monotone, so
each piece performs exactly the relaxations the full run would and the
values are bit-identical to a full row.

``dijkstra_csr`` is the pure-Python reference (binary heap with lazy
deletion over the frozen CSR arrays of :class:`~repro.net.graph.Graph`);
the oracle uses it on the same pieces when scipy is absent.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

try:  # scipy's compiled Dijkstra is ~100x the pure-Python one; optional.
    from scipy.sparse import csr_matrix as _csr_matrix
    from scipy.sparse.csgraph import dijkstra as _scipy_dijkstra

    _HAVE_SCIPY = True
except ImportError:  # pragma: no cover - scipy present in the test env
    _HAVE_SCIPY = False

from .graph import Graph

__all__ = ["dijkstra_csr", "PathOracle", "reconstruct_path"]


class _Csr(NamedTuple):
    """CSR arrays in ``scipy.sparse.csr_matrix`` argument and attribute order."""

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray


def _dijkstra_arrays(csr: Any, source: int) -> Tuple[np.ndarray, np.ndarray]:
    """Binary-heap Dijkstra over ``csr.indptr`` / ``.indices`` / ``.data``."""
    indptr, indices, weights = csr.indptr, csr.indices, csr.data
    n = len(indptr) - 1
    dist = np.full(n, np.inf, dtype=np.float64)
    parent = np.full(n, -1, dtype=np.int64)
    dist[source] = 0.0
    # (distance, vertex) heap with lazy deletion.
    heap: List[Tuple[float, int]] = [(0.0, source)]
    visited = np.zeros(n, dtype=bool)
    while heap:
        d, u = heapq.heappop(heap)
        if visited[u]:
            continue
        visited[u] = True
        lo, hi = indptr[u], indptr[u + 1]
        for k in range(lo, hi):
            v = int(indices[k])
            nd = d + float(weights[k])
            if nd < dist[v]:
                dist[v] = nd
                parent[v] = u
                heapq.heappush(heap, (nd, v))
    return dist, parent


def dijkstra_csr(graph: Graph, source: int) -> Tuple[np.ndarray, np.ndarray]:
    """Single-source shortest paths on a frozen graph.

    Returns ``(dist, parent)`` arrays of length ``n``: ``dist[v]`` is the
    shortest-path weight from ``source`` to ``v`` (``inf`` if unreachable)
    and ``parent[v]`` the predecessor of ``v`` on one shortest path (``-1``
    for the source and unreachable vertices).
    """
    indptr, indices, weights = graph.csr()
    n = graph.num_vertices
    if not 0 <= source < n:
        raise IndexError(f"source {source} out of range [0, {n})")
    return _dijkstra_arrays(_Csr(weights, indices, indptr), source)


def reconstruct_path(parent: np.ndarray, source: int, target: int) -> List[int]:
    """Recover the vertex sequence source→target from a parent array.

    Returns an empty list when ``target`` is unreachable.
    """
    n = len(parent)
    if not 0 <= source < n:
        raise IndexError(f"source {source} out of range [0, {n})")
    if not 0 <= target < n:
        raise IndexError(f"target {target} out of range [0, {n})")
    if target == source:
        return [source]
    if parent[target] < 0:
        return []
    path = [target]
    v = target
    while v != source:
        v = int(parent[v])
        path.append(v)
        if len(path) > n:  # defensive: corrupt parent array
            raise RuntimeError("cycle detected while reconstructing path")
    path.reverse()
    return path


def _pendant_domains(
    indptr: np.ndarray, indices: np.ndarray, hint: Optional[np.ndarray]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Check a per-vertex domain hint against the arcs.

    Returns ``(domain, arcs, tails, heads)``: ``domain[v]`` is ``0..k-1``
    for the hinted domains joined to the rest of the graph by exactly one
    edge whose far end is core and ``-1`` for every other vertex (core);
    ``arcs`` are the CSR positions of those gateway edges, both directions,
    and ``tails`` / ``heads`` their end vertices.  A domain the arcs do not
    bear out is demoted to core, so a wrong hint costs speed, never
    correctness.
    """
    n = len(indptr) - 1
    none = np.empty(0, dtype=np.int64)
    if hint is None:
        return np.full(n, -1, dtype=np.int64), none, none, none
    hint = np.asarray(hint)
    if hint.shape != (n,) or hint.dtype.kind not in "iu":
        raise ValueError(f"domain_of must be {n} integers, one per vertex")
    # Compact labels 0..k-1 in hint order; every negative label means core.
    labels, domain = np.unique(np.maximum(hint, -1), return_inverse=True)
    if labels.size and labels[0] < 0:
        domain = domain - 1
    arcs = np.flatnonzero(np.repeat(domain, np.diff(indptr)) != domain[indices])
    tails, heads = np.searchsorted(indptr, arcs, side="right") - 1, indices[arcs]
    leaving = domain[tails] >= 0
    near, far = domain[tails[leaving]], domain[heads[leaving]]
    pendant = np.bincount(near, minlength=int(labels.size)) == 1
    # The far end must be core once the multi-homed domains are: two
    # domains hanging off each other have no core entry point.
    pendant[near[(far >= 0) & pendant[far]]] = False
    kept = np.cumsum(pendant) - 1
    domain = np.where((domain >= 0) & pendant[domain], kept[domain], -1)
    gateway = domain[tails] != domain[heads]
    return domain, arcs[gateway], tails[gateway], heads[gateway]


class PathOracle:
    """Memoised point-to-point shortest-path distances on a frozen graph.

    Distances are cached per *source*.  A source first seen by
    :meth:`distance` is *opened*: Dijkstra runs over its own stub domain
    and the skeleton only (a few hundred vertices whatever the router
    count), and the row is extended one target domain at a time as
    queries arrive (``segment_fills``).  A source first seen by
    :meth:`prewarm`, :meth:`distances_many`, :meth:`route_costs` or
    :meth:`distances_from` gets its full row, every missing source of the
    call in a single compiled multi-source ``csgraph.dijkstra``
    invocation; these also complete an opened source's row.  Either way
    later queries from that source are array reads, and either way the
    values are the ones a full single-source run computes, bit for bit.

    Cache behaviour is observable: ``cache_hits`` / ``cache_misses`` /
    ``cache_evictions`` count per-source lookups, ``dijkstra_runs`` the
    sources opened or computed, ``batch_calls`` the multi-source
    invocations, ``segment_fills`` the Dijkstra calls that extended an
    already cached source and ``dijkstra_vertices`` the vertices handed to
    Dijkstra over all of them; :meth:`cache_stats` snapshots the counters
    for metrics export.

    Parameters
    ----------
    graph:
        A frozen :class:`Graph`.
    max_cached_sources:
        Optional LRU bound on cached sources (a full row costs ``8 * n``
        bytes).  A source is promoted on every hit and the
        least-recently-used one is evicted with everything held for it,
        so a bounded oracle stays within budget without thrashing on
        repeated-source sweeps.  ``None`` means unbounded.
    use_scipy:
        Run Dijkstra in scipy when it is installed; otherwise (or when
        false) :func:`dijkstra_csr`'s loop runs on the same pieces.
    domain_of:
        Stub-domain id per vertex, negative for core routers
        (:attr:`TransitStubTopology.router_domain`).  Only a hint: a
        domain that does not hang off the core by exactly one edge is
        treated as core, and without a hint the whole graph is.
    """

    def __init__(
        self,
        graph: Graph,
        max_cached_sources: Optional[int] = None,
        use_scipy: bool = True,
        domain_of: Optional[np.ndarray] = None,
    ) -> None:
        if not graph.frozen:
            graph.freeze()
        if max_cached_sources is not None and max_cached_sources < 1:
            raise ValueError("max_cached_sources must be >= 1 (or None)")
        self.graph = graph
        self.max_cached_sources = max_cached_sources
        self.use_scipy = use_scipy and _HAVE_SCIPY
        indptr, indices, weights = graph.csr()
        self._n = graph.num_vertices
        self._whole = self._matrix(_Csr(weights, indices, indptr))
        self._build_pieces(indptr, indices, weights, domain_of)
        # LRU order: oldest-used first; promoted via move_to_end on hit.
        # A value is the full row, or for an opened source its segments
        # keyed by piece (0 = skeleton, d + 1 = stub domain d).
        self._dist_cache: OrderedDict[
            int, Union[np.ndarray, Dict[int, np.ndarray]]
        ] = OrderedDict()
        self._parent_cache: Dict[int, np.ndarray] = {}
        self.dijkstra_runs = 0  # sources opened or computed
        self.batch_calls = 0  # multi-source scipy invocations
        self.segment_fills = 0  # Dijkstra calls extending a cached source
        self.dijkstra_vertices = 0  # vertices handed to Dijkstra, all calls
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_evictions = 0

    def _matrix(self, csr: _Csr) -> Any:
        if not self.use_scipy:
            return csr
        n = len(csr.indptr) - 1
        return _csr_matrix(csr, shape=(n, n))

    def _build_pieces(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        weights: np.ndarray,
        hint: Optional[np.ndarray],
    ) -> None:
        """Cut the graph into the skeleton and one piece per stub domain.

        Piece 0 is the skeleton: the core vertices in id order, then the
        gateway of each domain with its gateway edge.  Piece ``d + 1`` is
        domain ``d``, its members in id order.  Every piece ends in one
        *virtual* vertex whose single out-arc :meth:`_run_piece` aims at
        the entry vertex before each run.
        """
        n = self._n
        domain, arcs, tails, heads = _pendant_domains(indptr, indices, hint)
        k = arcs.size // 2
        members = np.bincount(domain + 1, minlength=k + 1)  # core, then domains
        n_core = int(members[0])
        by_piece = np.argsort(domain, kind="stable")
        local = np.empty(n, dtype=np.int64)
        local[by_piece] = np.arange(n) - np.repeat(np.cumsum(members) - members, members)
        sizes = members.copy()
        sizes[0] += k
        first_slot = np.cumsum(sizes + 1) - (sizes + 1)
        virtual = first_slot + sizes
        # An arc inside a piece runs between its end vertices' places in
        # that piece; a gateway edge (the only kind left that crosses)
        # goes to the skeleton, where gateway d sits at n_core + d.
        row = np.repeat(first_slot[domain + 1] + local, np.diff(indptr))
        col = local[indices]
        in_skeleton = np.where(domain >= 0, n_core + domain, local)
        row[arcs] = in_skeleton[tails]
        col[arcs] = in_skeleton[heads]
        # One stable sort of all arcs (plus a placeholder arc per virtual
        # vertex) by piece and row yields every piece's CSR as one slice.
        slot = np.concatenate([row, virtual])
        order = np.argsort(slot, kind="stable")
        col = np.concatenate([col, np.zeros(k + 1, dtype=np.int64)])[order]
        data = np.concatenate([weights, np.ones(k + 1)])[order]
        ptr = np.zeros(int(virtual[-1]) + 2, dtype=np.int64)
        np.cumsum(np.bincount(slot, minlength=ptr.size - 1), out=ptr[1:])
        # The slices are disjoint, so each piece's virtual arc is its own.
        self._pieces = [
            self._matrix(
                _Csr(
                    data[ptr[lo] : ptr[hi + 1]],
                    col[ptr[lo] : ptr[hi + 1]],
                    ptr[lo : hi + 2] - ptr[lo],
                )
            )
            for lo, hi in zip(first_slot.tolist(), virtual.tolist())
        ]
        # Plain lists: the per-query path reads single elements.
        self._piece_of: List[int] = (domain + 1).tolist()
        self._local: List[int] = local.tolist()
        gateways = tails[domain[tails] >= 0]
        self._gateway_local: List[int] = local[gateways[np.argsort(domain[gateways])]].tolist()
        self._n_core = n_core

    # ------------------------------------------------------------------
    # Dijkstra entry points
    # ------------------------------------------------------------------
    def _run_piece(self, p: int, entry: int, offset: float) -> np.ndarray:
        """Distances inside piece ``p`` when ``entry`` is at ``offset``.

        Starts at the virtual vertex with its arc set to ``entry`` at
        weight ``offset``: ``0.0 + offset == offset``, so ``entry`` is
        settled at exactly that value and every later relaxation is the
        one a run over the whole graph performs.
        """
        piece = self._pieces[p]
        piece.indices[-1] = entry
        piece.data[-1] = offset
        virtual = len(piece.indptr) - 2
        self.dijkstra_vertices += virtual
        if self.use_scipy:
            dist: np.ndarray = _scipy_dijkstra(piece, directed=True, indices=virtual)
            return dist
        return _dijkstra_arrays(piece, virtual)[0]

    def _full_rows(self, sources: List[int]) -> np.ndarray:
        """Full distance rows of ``sources`` as a ``(len(sources), n)`` array."""
        self.dijkstra_vertices += self._n * len(sources)
        if self.use_scipy:
            # The CSR holds both arcs of every edge, so the directed scan
            # is the undirected one without its per-call transpose.
            dist: np.ndarray = _scipy_dijkstra(
                self._whole, directed=True, indices=sources
            )
            return dist
        return np.stack([_dijkstra_arrays(self._whole, s)[0] for s in sources])

    def _open(self, source: int) -> Dict[int, np.ndarray]:
        """Start a row for ``source``: its own domain and the skeleton."""
        p = self._piece_of[source]
        entry = self._local[source]
        if p == 0:
            row = {0: self._run_piece(0, entry, 0.0)}
        else:
            own = self._run_piece(p, entry, 0.0)
            gateway = self._gateway_local[p - 1]
            row = {
                p: own,
                0: self._run_piece(0, self._n_core + p - 1, float(own[gateway])),
            }
        self.dijkstra_runs += 1
        # Without stub domains the skeleton is the graph in vertex order.
        self._store(source, row if len(self._pieces) > 1 else row[0][:-1])
        return row

    def _fill(self, row: Dict[int, np.ndarray], p: int) -> np.ndarray:
        """Extend an opened row into domain ``p - 1`` through its gateway."""
        reach = float(row[0][self._n_core + p - 1])
        seg = row[p] = self._run_piece(p, self._gateway_local[p - 1], reach)
        self.segment_fills += 1
        return seg

    # ------------------------------------------------------------------
    # Cache
    # ------------------------------------------------------------------
    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self._n:
            raise IndexError(f"vertex {v} out of range [0, {self._n})")

    def _store(
        self, source: int, row: Union[np.ndarray, Dict[int, np.ndarray]]
    ) -> None:
        """Insert one source, evicting the LRU source at the bound.

        The victim goes with everything held for it — segments and any
        parent row — so :meth:`path` never sees predecessors that outlived
        their distances.
        """
        cache = self._dist_cache
        if (
            self.max_cached_sources is not None
            and source not in cache
            and len(cache) >= self.max_cached_sources
        ):
            victim, _ = cache.popitem(last=False)
            self._parent_cache.pop(victim, None)
            self.cache_evictions += 1
        cache[source] = row
        cache.move_to_end(source)

    def _rows_for(self, sources: Iterable[int]) -> Dict[int, np.ndarray]:
        """Full rows of the distinct ``sources``, computed where missing.

        Cached sources are hits and are promoted; the missing ones are
        computed in one multi-source call, and so — separately, they are
        not new sources — are the rows of sources only opened so far.
        """
        cache = self._dist_cache
        rows: Dict[int, np.ndarray] = {}
        missing: List[int] = []
        opened: List[int] = []
        for s in dict.fromkeys(sources):
            self._check_vertex(s)
            cached = cache.get(s)
            if cached is None:
                self.cache_misses += 1
                missing.append(s)
                continue
            self.cache_hits += 1
            cache.move_to_end(s)
            if isinstance(cached, dict):
                opened.append(s)
            else:
                rows[s] = cached
        if opened:
            for s, dist in zip(opened, self._full_rows(opened)):
                rows[s] = cache[s] = dist
            self.segment_fills += len(opened)
        if missing:
            if self.use_scipy and len(missing) > 1:
                self.batch_calls += 1
            for s, dist in zip(missing, self._full_rows(missing)):
                rows[s] = dist
                self._store(s, dist)
            self.dijkstra_runs += len(missing)
        return rows

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def distances_many(self, sources: Sequence[int]) -> np.ndarray:
        """Distance rows for ``sources`` as one ``(len(sources), n)`` array.

        Every source missing from the cache is computed in a *single*
        multi-source ``scipy.sparse.csgraph.dijkstra`` call (falling back to
        a loop over the pure-Python Dijkstra without scipy); already-cached
        rows are reused and promoted.  Duplicate sources are computed once.
        The returned rows follow the input order and are valid even when a
        bounded cache cannot retain them all.
        """
        order = [int(s) for s in sources]
        if not order:
            return np.empty((0, self._n), dtype=np.float64)
        rows = self._rows_for(order)
        return np.stack([rows[s] for s in order])

    def prewarm(self, sources: Iterable[int]) -> int:
        """Batch-compute distance rows for ``sources`` ahead of a sweep.

        Returns the number of rows that actually had to be computed.
        Pre-warming with the exact source set a sweep will touch turns its
        per-query :meth:`distance` calls into pure cache reads.
        """
        before = self.dijkstra_runs
        self._rows_for(int(s) for s in sources)
        return self.dijkstra_runs - before

    def route_costs(self, pairs: Sequence[Tuple[int, int]]) -> np.ndarray:
        """Shortest-path weight for every ``(u, v)`` pair, vectorised.

        Missing source rows are computed with one multi-source call and
        the costs read with one fancy-index gather over the stacked rows —
        the fast path for the Fig-7/Fig-9 cost sweeps.  Distances are
        symmetric (undirected underlay), so each pair charges whichever
        endpoint is already cached where possible.
        """
        if len(pairs) == 0:
            return np.empty(0, dtype=np.float64)
        ends = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        if ends.min() < 0 or ends.max() >= self._n:
            raise IndexError(f"pair endpoint out of range [0, {self._n})")
        us, vs = ends[:, 0], ends[:, 1]
        # Prefer already-cached sources pairwise (symmetry), mirroring
        # the swap in :meth:`distance`.
        cached = np.fromiter(
            map(self._dist_cache.__contains__, ends.ravel().tolist()),
            dtype=bool,
            count=ends.size,
        ).reshape(-1, 2)
        swap = cached[:, 1] & ~cached[:, 0]
        us, vs = np.where(swap, vs, us), np.where(swap, us, vs)
        # Distinct sources in first-occurrence order, as the cache sees them.
        distinct, first, inverse = np.unique(us, return_index=True, return_inverse=True)
        by_first = np.argsort(first)
        rank = np.empty_like(by_first)
        rank[by_first] = np.arange(by_first.size)
        rows = self.distances_many(distinct[by_first].tolist())
        costs: np.ndarray = rows[rank[inverse], vs]
        return costs

    def distance(self, u: int, v: int) -> float:
        """Shortest-path weight between ``u`` and ``v`` (inf if disconnected)."""
        n = self._n
        if not (0 <= u < n and 0 <= v < n):
            self._check_vertex(u)
            self._check_vertex(v)
        if u == v:
            return 0.0
        cache = self._dist_cache
        row = cache.get(u)
        if row is None:
            # Prefer a source that is already cached; distances are
            # symmetric in an undirected graph.
            row = cache.get(v)
            if row is not None:
                u, v = v, u
        if row is None:
            self.cache_misses += 1
            row = self._open(u)
        else:
            self.cache_hits += 1
            cache.move_to_end(u)  # LRU promotion
        if not isinstance(row, dict):
            return float(row[v])
        p = self._piece_of[v]
        seg = row.get(p)
        if seg is None:
            seg = self._fill(row, p)
        return float(seg[self._local[v]])

    def distances_from(self, source: int) -> np.ndarray:
        """Full distance vector from ``source`` (cached)."""
        source = int(source)
        return self._rows_for((source,))[source]

    def path(self, u: int, v: int) -> List[int]:
        """One shortest vertex path u→v (empty when unreachable).

        Predecessor rows are computed on first use — one more run over the
        whole graph, which the distance queries never pay for — and are
        dropped with their source.
        """
        self._check_vertex(v)
        self.distances_from(u)
        parent = self._parent_cache.get(u)
        if parent is None:
            self.dijkstra_vertices += self._n
            if self.use_scipy:
                _, parent = _scipy_dijkstra(
                    self._whole, directed=True, indices=u, return_predecessors=True
                )
                # scipy marks "no predecessor" with -9999; normalise to -1.
                parent = np.where(parent < 0, -1, parent).astype(np.int64)
            else:
                parent = _dijkstra_arrays(self._whole, u)[1]
            self._parent_cache[u] = parent
        return reconstruct_path(parent, u, v)

    def hop_count(self, u: int, v: int) -> int:
        """Number of underlay links on one shortest path u→v (-1 if none)."""
        p = self.path(u, v)
        return len(p) - 1 if p else -1

    @property
    def cached_sources(self) -> int:
        return len(self._dist_cache)

    def cache_stats(self) -> Dict[str, float]:
        """Snapshot of the cache counters for metrics export.

        ``hit_rate`` is hits / (hits + misses), NaN before any lookup.
        """
        lookups = self.cache_hits + self.cache_misses
        return {
            "hits": self.cache_hits,
            "misses": self.cache_misses,
            "evictions": self.cache_evictions,
            "dijkstra_runs": self.dijkstra_runs,
            "batch_calls": self.batch_calls,
            "segment_fills": self.segment_fills,
            "cached_sources": len(self._dist_cache),
            "hit_rate": self.cache_hits / lookups if lookups else float("nan"),
        }

    def reset_stats(self) -> None:
        """Zero the counters (the cached rows are kept)."""
        self.dijkstra_runs = 0
        self.batch_calls = 0
        self.segment_fills = 0
        self.dijkstra_vertices = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_evictions = 0
