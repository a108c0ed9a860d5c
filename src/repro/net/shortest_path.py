"""Shortest-path machinery: one Dijkstra tree per piece entry, offsets pushed down it.

The paper's path-cost metric (§4.1) charges each application-level hop the
*shortest-path weight* between the two endpoints' attachment points, and
Figure 9's LDT edge cost is likewise "the minimal sum of path weights for
the network links assembling the edge".  Experiments therefore issue very
many point-to-point distance queries against a static topology, from a
source set that is sometimes known up front (the figure sweeps) and
sometimes not (a fresh network answering its first routes).

:class:`PathOracle` serves both by exploiting the transit-stub shape: a
stub domain hangs off the backbone by exactly one gateway edge, so every
path into it crosses that gateway.  A row is therefore three kinds of
*segment*: the source's own domain, the *skeleton* (core routers plus every
gateway with its gateway edge) entered at the source's gateway, and every
other domain entered at its own gateway, each seeded with the distance
already known at its entry.  Only the first is a Dijkstra run from the
source.  For the others the oracle keeps one offset-0 Dijkstra tree per
(piece, entry) and pushes the seeds of any number of sources down it at
once: one ``(piece size × sources)`` add per tree depth.

Float ``+`` rounds, so an offset can turn a near tie the offset-0 tree
broke one way into a strict win for another arc.  A pushed column is
*certified* when no arc relaxes it, and only arcs within :data:`TAU` of a
tie at offset 0 can; a column that fails is relaxed over all the piece's
arcs until nothing changes.  Float ``+`` is isotone and never decreases,
so a relaxation fixpoint reached from path sums is the float minimum over
paths — exactly what Dijkstra over the whole graph computes — and every
value is bit-identical to a full row.

Every Dijkstra run is scipy's compiled one; ``dijkstra_csr`` runs it from
one source over the whole frozen :class:`~repro.net.graph.Graph`.
"""

from __future__ import annotations

import operator
from collections import OrderedDict
from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as _scipy_dijkstra

from .graph import Graph

__all__ = ["dijkstra_csr", "PathOracle", "reconstruct_path", "TAU"]

#: Certification margin of a pushed column, relative to the push's largest
#: finite offset plus the tree's largest label and largest arc weight.
#: Pushing an offset down a tree path of K < 2**20 arcs and summing the
#: offset-0 label along it each err by at most γ_K < 2**-33 of that sum, so
#: an arc relaxes a pushed column only if its offset-0 slack is below
#: about 2**-31 of the sum — never when it exceeds TAU of it.
TAU = 2.0**-30


def _run_with_parents(matrix: Any, source: int) -> Tuple[np.ndarray, np.ndarray]:
    """One scipy run from ``source``, "no predecessor" (-9999) as -1."""
    dist, pred = _scipy_dijkstra(matrix, directed=True, indices=source, return_predecessors=True)
    return dist, np.where(pred < 0, -1, pred).astype(np.int64)


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
    return _run_with_parents(csr_matrix((weights, indices, indptr), shape=(n, n)), source)


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


class _Tree(NamedTuple):
    """One offset-0 Dijkstra tree of a piece, ready to push offsets down.

    ``levels`` holds ``(vertices, parents, weights)`` per depth, root
    excluded; ``bound`` is the largest finite label plus the largest arc
    weight; ``slack`` lists the reachable arcs off the tree that some push
    may have to check by their offset-0 slack ``d0[u] + w - d0[v]``,
    ascending, with ``tails`` / ``heads`` / ``weights`` in the same order.
    """

    levels: List[Tuple[np.ndarray, np.ndarray, np.ndarray]]
    bound: float
    slack: np.ndarray
    tails: np.ndarray
    heads: np.ndarray
    weights: np.ndarray


class PathOracle:
    """Memoised point-to-point shortest-path distances on a frozen graph.

    Distances are cached per *source*.  A source first seen by
    :meth:`distance` is *opened*: Dijkstra runs over its own stub domain,
    the skeleton is pushed from its gateway, and the row is extended one
    target domain at a time as queries arrive (``segment_fills``).  A
    source first seen by :meth:`prewarm`, :meth:`distances_many`,
    :meth:`route_costs` or :meth:`distances_from` gets its full row: every
    missing source of the call runs Dijkstra over its own domain (all of
    one domain's sources in one multi-source call), and each of the other
    segments is one push of all the call's sources down one cached tree;
    these calls also complete an opened source's row.  Either way later
    queries from that source are array reads, and either way the values
    are the ones a full single-source run computes, bit for bit.

    Cache behaviour is observable: ``cache_hits`` / ``cache_misses`` /
    ``cache_evictions`` count per-source lookups, ``dijkstra_runs`` the
    sources opened or computed, ``batch_calls`` the calls computing more
    than one missing source at once, ``segment_fills`` the extensions of an
    already cached source and ``dijkstra_vertices`` the vertices handed to
    Dijkstra — the own piece of every run plus the piece of every tree
    built; ``repaired_columns`` counts the pushed columns the certificate
    rejected.  :meth:`cache_stats` snapshots the cache counters for
    metrics export.

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
        domain_of: Optional[np.ndarray] = None,
    ) -> None:
        if not graph.frozen:
            graph.freeze()
        if max_cached_sources is not None and max_cached_sources < 1:
            raise ValueError("max_cached_sources must be >= 1 (or None)")
        self.graph = graph
        self.max_cached_sources = max_cached_sources
        indptr, indices, weights = graph.csr()
        self._n = graph.num_vertices
        self._whole = csr_matrix((weights, indices, indptr), shape=(self._n, self._n))
        self._build_pieces(domain_of)
        # No finite distance exceeds the sum of all arc weights, so no push
        # checks an arc whose slack is above TAU * (that sum + its bound).
        self._reach_cap = float(weights.sum())
        self._trees: Dict[Tuple[int, int], _Tree] = {}
        # LRU order: oldest-used first; promoted via move_to_end on hit.
        # A value is the full row, or for an opened source its segments
        # keyed by piece (0 = skeleton, d + 1 = stub domain d).
        self._dist_cache: OrderedDict[int, Union[np.ndarray, Dict[int, np.ndarray]]] = OrderedDict()
        self._parent_cache: Dict[int, np.ndarray] = {}
        self.dijkstra_runs = 0  # sources opened or computed
        self.batch_calls = 0  # calls computing several missing sources
        self.segment_fills = 0  # extensions of an already cached source
        self.dijkstra_vertices = 0  # vertices handed to Dijkstra, all calls
        self.repaired_columns = 0  # pushed columns relaxed to the fixpoint
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_evictions = 0

    def _build_pieces(self, hint: Optional[np.ndarray]) -> None:
        """Cut the graph into the skeleton and one piece per stub domain.

        Piece 0 is the skeleton: the core vertices in id order, then the
        gateway of each domain with its gateway edge.  Piece ``d + 1`` is
        domain ``d``, its members in id order.
        """
        n = self._n
        indptr, indices, weights = self.graph.csr()
        domain, arcs, tails, heads = _pendant_domains(indptr, indices, hint)
        k = arcs.size // 2
        members = np.bincount(domain + 1, minlength=k + 1)  # core, then domains
        n_core = int(members[0])
        by_piece = np.argsort(domain, kind="stable")
        local = np.empty(n, dtype=np.int64)
        local[by_piece] = np.arange(n) - np.repeat(np.cumsum(members) - members, members)
        sizes = members.copy()
        sizes[0] += k
        first_slot = np.cumsum(sizes) - sizes
        # An arc inside a piece runs between its end vertices' places in
        # that piece; a gateway edge (the only kind left that crosses)
        # goes to the skeleton, where gateway d sits at n_core + d.
        row = np.repeat(first_slot[domain + 1] + local, np.diff(indptr))
        col = local[indices]
        in_skeleton = np.where(domain >= 0, n_core + domain, local)
        row[arcs] = in_skeleton[tails]
        col[arcs] = in_skeleton[heads]
        # One stable sort of all arcs by piece and row yields every
        # piece's CSR as one slice.
        order = np.argsort(row, kind="stable")
        col, data = col[order], weights[order]
        ptr = np.zeros(n + k + 1, dtype=np.int64)
        np.cumsum(np.bincount(row, minlength=n + k), out=ptr[1:])
        self._pieces = [
            csr_matrix(
                (data[ptr[lo] : ptr[hi]], col[ptr[lo] : ptr[hi]], ptr[lo : hi + 1] - ptr[lo]),
                shape=(hi - lo, hi - lo),
            )
            for lo, hi in zip(first_slot.tolist(), (first_slot + sizes).tolist())
        ]
        # Global ids per piece in local order (the skeleton's own vertices
        # only); plain lists for the per-query path, which reads elements.
        self._members = np.split(by_piece, np.cumsum(members)[:-1])
        self._piece_of: List[int] = (domain + 1).tolist()
        self._local: List[int] = local.tolist()
        gateways = tails[domain[tails] >= 0]
        self._gateway_local: List[int] = local[gateways[np.argsort(domain[gateways])]].tolist()
        self._n_core = n_core

    # ------------------------------------------------------------------
    # Segments
    # ------------------------------------------------------------------
    def _runs(self, p: int, entries: List[int]) -> np.ndarray:
        """Dijkstra rows of piece ``p`` from its real vertices ``entries``."""
        piece = self._pieces[p]
        size = len(piece.indptr) - 1
        self.dijkstra_vertices += size * len(entries)
        dist: np.ndarray = _scipy_dijkstra(piece, directed=True, indices=entries)
        return dist.reshape(len(entries), size)

    def _tree(self, p: int, entry: int) -> _Tree:
        """Piece ``p``'s offset-0 Dijkstra tree from ``entry``, built once."""
        tree = self._trees.get((p, entry))
        if tree is not None:
            return tree
        piece = self._pieces[p]
        size = len(piece.indptr) - 1
        self.dijkstra_vertices += size
        d0, pred = _run_with_parents(piece, entry)
        tails = np.repeat(np.arange(size), np.diff(piece.indptr))
        heads, weights = np.asarray(piece.indices, dtype=np.int64), piece.data
        on_tree = pred[heads] == tails
        into = np.empty(size)
        into[heads[on_tree]] = weights[on_tree]
        depth = np.zeros(size, dtype=np.int64)
        up = pred.copy()
        while (up >= 0).any():
            depth += up >= 0
            up = np.where(up >= 0, pred[up], -1)
        kids = np.flatnonzero(depth)
        kids = kids[np.argsort(depth[kids], kind="stable")]
        levels = [
            (level, pred[level], into[level])
            for level in np.split(kids, np.flatnonzero(np.diff(depth[kids])) + 1)
        ]
        off = (d0[tails] < np.inf) & ~on_tree
        tails, heads, weights = tails[off], heads[off], weights[off]
        slack = d0[tails] + weights - d0[heads]
        if size >= 1 << 20:  # beyond TAU's summation bound: check every arc
            slack[:] = -np.inf
        bound = float(d0[d0 < np.inf].max() + piece.data.max(initial=0.0))
        near = np.flatnonzero(slack <= TAU * (self._reach_cap + bound))
        order = near[np.argsort(slack[near], kind="stable")]
        tree = self._trees[p, entry] = _Tree(
            levels, bound, slack[order], tails[order], heads[order], weights[order]
        )
        return tree

    def _push(self, p: int, entry: int, offsets: np.ndarray) -> np.ndarray:
        """Piece ``p``'s distances, one column per entry offset in ``offsets``.

        The offsets go down the offset-0 tree together; each column is
        then certified against the arcs within ``TAU`` of a tie and, if an
        arc still relaxes it, relaxed to the fixpoint.
        """
        tree = self._tree(p, entry)
        seg = np.full((len(self._pieces[p].indptr) - 1, offsets.size), np.inf)
        seg[entry] = offsets
        for kids, parents, w in tree.levels:
            seg[kids] = seg[parents] + w[:, None]
        reach = offsets[offsets < np.inf]
        tau = TAU * (reach.max(initial=0.0) + tree.bound)
        m = int(np.searchsorted(tree.slack, tau, side="right"))
        if m:
            t, w = tree.tails[:m], tree.weights[:m]
            bad = np.flatnonzero((seg[t] + w[:, None] < seg[tree.heads[:m]]).any(axis=0))
            if bad.size:
                seg[:, bad] = self._relax(p, seg[:, bad])
                self.repaired_columns += bad.size
        return seg

    def _relax(self, p: int, seg: np.ndarray) -> np.ndarray:
        """Bellman-Ford over piece ``p``'s arcs from the path sums in
        ``seg`` (one column per offset) until no arc relaxes any column."""
        piece = self._pieces[p]
        order = np.argsort(piece.indices, kind="stable")
        tails = np.repeat(np.arange(len(piece.indptr) - 1), np.diff(piece.indptr))[order]
        heads, w = np.asarray(piece.indices)[order], piece.data[order][:, None]
        starts = np.flatnonzero(np.diff(heads, prepend=-1))
        into = heads[starts]
        while True:
            best = np.minimum.reduceat(seg[tails] + w, starts, axis=0)
            better = best < seg[into]
            if not better.any():
                return seg
            seg[into] = np.where(better, best, seg[into])

    def _full_rows(self, sources: List[int]) -> np.ndarray:
        """Full distance rows of ``sources`` as a ``(len(sources), n)`` array.

        Each domain's sources run Dijkstra over it together; every other
        segment is one push of the columns that need it.
        """
        out = np.empty((len(sources), self._n))
        piece = np.array([self._piece_of[s] for s in sources], dtype=np.int64)
        n_core = self._n_core
        gates = np.empty((len(self._pieces) - 1, len(sources)))  # skeleton at gateways
        for p in np.unique(piece).tolist():
            cols = np.flatnonzero(piece == p)
            own = self._runs(p, [self._local[sources[c]] for c in cols.tolist()])
            if p:
                out[np.ix_(cols, self._members[p])] = own
                gateway = self._gateway_local[p - 1]
                own = self._push(0, n_core + p - 1, own[:, gateway]).T
            out[np.ix_(cols, self._members[0])] = own[:, :n_core]
            gates[:, cols] = own[:, n_core:].T
        for p in range(1, len(self._pieces)):
            cols = np.flatnonzero(piece != p)
            if cols.size:
                seg = self._push(p, self._gateway_local[p - 1], gates[p - 1, cols])
                out[np.ix_(cols, self._members[p])] = seg.T
        return out

    def _open(self, source: int) -> Dict[int, np.ndarray]:
        """Start a row for ``source``: its own domain and the skeleton."""
        p = self._piece_of[source]
        own = self._runs(p, [self._local[source]])[0]
        row = {p: own}
        if p:
            gateway = self._gateway_local[p - 1]
            row[0] = self._push(0, self._n_core + p - 1, own[gateway : gateway + 1])[:, 0]
        self.dijkstra_runs += 1
        # Without stub domains the skeleton is the graph in vertex order.
        self._store(source, row if len(self._pieces) > 1 else own)
        return row

    def _fill(self, row: Dict[int, np.ndarray], p: int) -> np.ndarray:
        """Extend an opened row into domain ``p - 1`` through its gateway."""
        at = self._n_core + p - 1
        seg = row[p] = self._push(p, self._gateway_local[p - 1], row[0][at : at + 1])[:, 0]
        self.segment_fills += 1
        return seg

    # ------------------------------------------------------------------
    # Cache
    # ------------------------------------------------------------------
    def _vertex(self, v: Any) -> int:
        """``v`` as a vertex id: an integer (Python or numpy) in ``[0, n)``."""
        try:
            i = operator.index(v)
        except TypeError:
            raise TypeError(f"vertex {v!r} is not an integer") from None
        if not 0 <= i < self._n:
            raise IndexError(f"vertex {i} out of range [0, {self._n})")
        return i

    def _store(self, source: int, row: Union[np.ndarray, Dict[int, np.ndarray]]) -> None:
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

    def _rows_for(self, sources: List[int]) -> Dict[int, np.ndarray]:
        """Full rows of the distinct (checked) ``sources``, computed where
        missing.  Cached sources are hits and are promoted; the rows of
        missing sources and of sources only opened so far (not new
        sources) are computed together.
        """
        cache = self._dist_cache
        rows: Dict[int, np.ndarray] = {}
        missing: List[int] = []
        opened: List[int] = []
        for s in dict.fromkeys(sources):
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
        if opened or missing:
            if len(missing) > 1:
                self.batch_calls += 1
            for s, dist in zip(opened + missing, self._full_rows(opened + missing)):
                rows[s] = dist
                if s in cache:
                    cache[s] = dist
                else:
                    self._store(s, dist)
            self.segment_fills += len(opened)
            self.dijkstra_runs += len(missing)
        return rows

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def distances_many(self, sources: Sequence[int]) -> np.ndarray:
        """Distance rows for ``sources`` as one ``(len(sources), n)`` array.

        Every source missing from the cache is computed in one pass over
        the pieces; already-cached rows are reused and promoted.
        Duplicate sources are computed once.  The returned rows follow the
        input order and are valid even when a bounded cache cannot retain
        them all.
        """
        order = [self._vertex(s) for s in sources]
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
        self._rows_for([self._vertex(s) for s in sources])
        return self.dijkstra_runs - before

    def route_costs(self, pairs: Sequence[Tuple[int, int]]) -> np.ndarray:
        """Shortest-path weight for every ``(u, v)`` pair, vectorised.

        Missing source rows are computed in one pass and the costs read
        with one fancy-index gather over the stacked rows — the fast path
        for the Fig-7/Fig-9 cost sweeps.  Distances are symmetric
        (undirected underlay), so each pair charges whichever endpoint is
        already cached where possible.
        """
        if len(pairs) == 0:
            return np.empty(0, dtype=np.float64)
        ends = np.asarray(pairs)
        if ends.dtype.kind not in "biu":
            raise TypeError(f"pair endpoints must be integers, not {ends.dtype}")
        ends = ends.astype(np.int64).reshape(-1, 2)
        if ends.min() < 0 or ends.max() >= self._n:
            raise IndexError(f"pair endpoint out of range [0, {self._n})")
        us, vs = ends[:, 0], ends[:, 1]
        # Prefer already-cached sources pairwise (symmetry), mirroring
        # the swap in :meth:`distance`.
        cached = np.fromiter(
            map(self._dist_cache.__contains__, ends.ravel().tolist()), dtype=bool, count=ends.size
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
        if not (type(u) is int and type(v) is int and 0 <= u < n and 0 <= v < n):
            u, v = self._vertex(u), self._vertex(v)
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
        source = self._vertex(source)
        return self._rows_for([source])[source]

    def path(self, u: int, v: int) -> List[int]:
        """One shortest vertex path u→v (empty when unreachable).

        Predecessor rows are computed on first use — one more run over the
        whole graph, which the distance queries never pay for — and are
        dropped with their source.
        """
        u, v = self._vertex(u), self._vertex(v)
        self.distances_from(u)
        parent = self._parent_cache.get(u)
        if parent is None:
            self.dijkstra_vertices += self._n
            parent = self._parent_cache[u] = _run_with_parents(self._whole, u)[1]
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
        self.dijkstra_runs = self.batch_calls = self.segment_fills = 0
        self.dijkstra_vertices = self.repaired_columns = 0
        self.cache_hits = self.cache_misses = self.cache_evictions = 0
