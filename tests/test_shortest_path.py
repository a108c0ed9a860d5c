"""Tests for repro.net.shortest_path — Dijkstra, PathOracle, and
cross-validation against networkx."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import Graph, PathOracle, dijkstra_csr, reconstruct_path
from repro.net.transit_stub import (
    TransitStubParams,
    generate_transit_stub,
    params_for_router_count,
)
from repro.sim import RngStreams

from .oracles.paths import FullRowOracle


def line_graph(n: int) -> Graph:
    g = Graph()
    g.add_vertices(n)
    for i in range(n - 1):
        g.add_edge(i, i + 1, float(i + 1))
    g.freeze()
    return g


class TestDijkstra:
    def test_line_distances(self):
        g = line_graph(5)
        dist, parent = dijkstra_csr(g, 0)
        assert list(dist) == [0.0, 1.0, 3.0, 6.0, 10.0]
        assert parent[0] == -1
        assert parent[4] == 3

    def test_unreachable_is_inf(self):
        g = Graph()
        g.add_vertices(3)
        g.add_edge(0, 1, 1.0)
        g.freeze()
        dist, parent = dijkstra_csr(g, 0)
        assert dist[2] == np.inf
        assert parent[2] == -1

    def test_source_out_of_range(self):
        g = line_graph(3)
        with pytest.raises(IndexError):
            dijkstra_csr(g, 5)

    def test_prefers_cheaper_multi_hop(self):
        g = Graph()
        g.add_vertices(3)
        g.add_edge(0, 2, 10.0)
        g.add_edge(0, 1, 1.0)
        g.add_edge(1, 2, 1.0)
        g.freeze()
        dist, parent = dijkstra_csr(g, 0)
        assert dist[2] == 2.0
        assert parent[2] == 1


class TestReconstructPath:
    def test_path(self):
        g = line_graph(4)
        _, parent = dijkstra_csr(g, 0)
        assert reconstruct_path(parent, 0, 3) == [0, 1, 2, 3]

    def test_trivial(self):
        g = line_graph(2)
        _, parent = dijkstra_csr(g, 0)
        assert reconstruct_path(parent, 0, 0) == [0]

    def test_unreachable_empty(self):
        g = Graph()
        g.add_vertices(2)
        g.add_edge(0, 1, 1.0)
        g.add_vertex()
        g.freeze()
        _, parent = dijkstra_csr(g, 0)
        assert reconstruct_path(parent, 0, 2) == []


class TestPathOracle:
    @pytest.fixture
    def graph(self):
        topo = generate_transit_stub(TransitStubParams(), RngStreams(5))
        return topo.graph

    def test_symmetry(self, graph):
        oracle = PathOracle(graph)
        assert oracle.distance(3, 17) == pytest.approx(oracle.distance(17, 3))

    def test_identity(self, graph):
        oracle = PathOracle(graph)
        assert oracle.distance(4, 4) == 0.0

    def test_triangle_inequality(self, graph):
        oracle = PathOracle(graph)
        a, b, c = 1, 10, 20
        assert oracle.distance(a, c) <= oracle.distance(a, b) + oracle.distance(b, c) + 1e-9

    def test_caching_counts_runs(self, graph):
        oracle = PathOracle(graph)
        oracle.distance(2, 5)
        oracle.distance(2, 9)
        oracle.distance(2, 11)
        assert oracle.dijkstra_runs == 1
        oracle.distance(7, 2)  # symmetric reuse of source 2
        assert oracle.dijkstra_runs == 1
        # Predecessors are computed on first use; that is not a new source
        # and leaves the distances as they were.
        before = oracle.distance(2, 30)
        assert oracle.path(2, 30)
        assert oracle.dijkstra_runs == 1
        assert oracle.distance(2, 30) == before
        assert list(oracle._parent_cache) == [2]

    def test_cache_eviction_bound(self, graph):
        oracle = PathOracle(graph, max_cached_sources=2)
        for src in range(5):
            oracle.distances_from(src)
        assert oracle.cached_sources <= 2

    def test_path_endpoints_and_cost(self, graph):
        oracle = PathOracle(graph)
        p = oracle.path(0, 30)
        assert p[0] == 0 and p[-1] == 30
        cost = sum(
            graph.edge_weight(u, v) for u, v in zip(p, p[1:])
        )
        assert cost == pytest.approx(oracle.distance(0, 30))

    def test_hop_count(self, graph):
        oracle = PathOracle(graph)
        assert oracle.hop_count(0, 0) == 0
        assert oracle.hop_count(0, 30) == len(oracle.path(0, 30)) - 1

    def test_pure_python_matches_scipy(self, graph):
        fast = PathOracle(graph, use_scipy=True)
        slow = PathOracle(graph, use_scipy=False)
        for src in (0, 7, 23):
            np.testing.assert_allclose(
                fast.distances_from(src), slow.distances_from(src)
            )


class TestAgainstNetworkx:
    def test_distances_match_networkx(self):
        nx = pytest.importorskip("networkx")
        topo = generate_transit_stub(TransitStubParams(), RngStreams(21))
        g = topo.graph
        ng = nx.Graph()
        ng.add_nodes_from(range(g.num_vertices))
        for u, v, w in g.edges():
            ng.add_edge(u, v, weight=w)
        oracle = PathOracle(g, use_scipy=False)
        lengths = nx.single_source_dijkstra_path_length(ng, 0, weight="weight")
        ours = oracle.distances_from(0)
        for v, d in lengths.items():
            assert ours[v] == pytest.approx(d)


class TestReconstructPathValidation:
    def test_target_out_of_range(self):
        g = line_graph(3)
        _, parent = dijkstra_csr(g, 0)
        with pytest.raises(IndexError, match="target 5 out of range"):
            reconstruct_path(parent, 0, 5)

    def test_negative_target_rejected(self):
        """Negative targets must not silently wrap around (numpy indexing)."""
        g = line_graph(3)
        _, parent = dijkstra_csr(g, 0)
        with pytest.raises(IndexError, match="target -1 out of range"):
            reconstruct_path(parent, 0, -1)

    def test_source_out_of_range(self):
        g = line_graph(3)
        _, parent = dijkstra_csr(g, 0)
        with pytest.raises(IndexError, match="source"):
            reconstruct_path(parent, 9, 1)


class TestLRUPromotion:
    """The bounded cache is a real LRU: hits promote, evictions take the
    least-recently-used row, and the parent cache stays in lockstep."""

    @pytest.fixture
    def graph(self):
        topo = generate_transit_stub(TransitStubParams(), RngStreams(5))
        return topo.graph

    def test_hit_promotes_entry(self, graph):
        oracle = PathOracle(graph, max_cached_sources=2)
        oracle.distances_from(0)
        oracle.distances_from(1)
        oracle.distances_from(0)  # promote 0 above 1
        oracle.distances_from(2)  # must evict 1, not 0
        runs = oracle.dijkstra_runs
        oracle.distances_from(0)
        assert oracle.dijkstra_runs == runs, "0 was promoted, must still be cached"
        oracle.distances_from(1)
        assert oracle.dijkstra_runs == runs + 1, "1 was the LRU victim"

    def test_repeated_source_sweep_runs_flat(self, graph):
        """Acceptance: with the bound set, a repeated-source sweep performs
        no more Dijkstra runs than distinct sources (FIFO would thrash)."""
        sources = [0, 1, 2, 3]
        oracle = PathOracle(graph, max_cached_sources=len(sources))
        for _ in range(5):
            for s in sources:
                oracle.distance(s, 17)
        assert oracle.dijkstra_runs == len(sources)
        assert oracle.cache_evictions == 0

    def test_eviction_counter_and_bound(self, graph):
        oracle = PathOracle(graph, max_cached_sources=2)
        for s in range(5):
            oracle.distances_from(s)
        assert oracle.cached_sources == 2
        assert oracle.cache_evictions == 3

    def test_parent_cache_in_lockstep(self, graph):
        oracle = PathOracle(graph, max_cached_sources=2)
        for s in range(5):
            p = oracle.path(s, (s + 7) % graph.num_vertices)
            assert p, "transit-stub graph is connected"
        assert set(oracle._dist_cache) == set(oracle._parent_cache)
        assert oracle.cached_sources <= 2
        # Distance queries hold no predecessors, and a source evicted by
        # them takes its predecessors along.
        oracle.distance(10, 11)
        assert len(oracle._parent_cache) == 1
        assert set(oracle._parent_cache) < set(oracle._dist_cache)
        oracle.distance(12, 13)
        assert not oracle._parent_cache
        assert oracle.cached_sources == 2

    def test_bound_must_be_positive(self, graph):
        with pytest.raises(ValueError):
            PathOracle(graph, max_cached_sources=0)


class TestBatchedOracle:
    @pytest.fixture
    def graph(self):
        topo = generate_transit_stub(TransitStubParams(), RngStreams(5))
        return topo.graph

    def test_distances_many_matches_single(self, graph):
        batched = PathOracle(graph)
        single = PathOracle(graph)
        sources = [0, 7, 23, 41]
        rows = batched.distances_many(sources)
        assert rows.shape == (len(sources), graph.num_vertices)
        for i, s in enumerate(sources):
            np.testing.assert_allclose(rows[i], single.distances_from(s))

    def test_distances_many_one_batch_call(self, graph):
        oracle = PathOracle(graph)
        oracle.distances_many([0, 7, 23, 41])
        assert oracle.batch_calls == 1
        assert oracle.dijkstra_runs == 4

    def test_distances_many_dedup_preserves_order(self, graph):
        oracle = PathOracle(graph)
        rows = oracle.distances_many([5, 2, 5, 2, 5])
        assert rows.shape[0] == 5
        assert oracle.dijkstra_runs == 2
        np.testing.assert_allclose(rows[0], rows[2])
        np.testing.assert_allclose(rows[1], rows[3])

    def test_distances_many_reuses_cache(self, graph):
        oracle = PathOracle(graph)
        oracle.distances_from(7)
        oracle.distances_many([7, 9])
        assert oracle.dijkstra_runs == 2  # 7 was a hit, only 9 computed

    def test_distances_many_empty(self, graph):
        oracle = PathOracle(graph)
        rows = oracle.distances_many([])
        assert rows.shape == (0, graph.num_vertices)
        assert oracle.dijkstra_runs == 0

    def test_distances_many_pure_python(self, graph):
        fast = PathOracle(graph, use_scipy=True)
        slow = PathOracle(graph, use_scipy=False)
        sources = [0, 7, 23]
        np.testing.assert_allclose(
            fast.distances_many(sources), slow.distances_many(sources)
        )
        assert slow.batch_calls == 0  # fallback loops over dijkstra_csr

    def test_distances_many_valid_beyond_bound(self, graph):
        """Rows are correct even when a bounded cache cannot hold them."""
        oracle = PathOracle(graph, max_cached_sources=2)
        reference = PathOracle(graph)
        sources = list(range(6))
        rows = oracle.distances_many(sources)
        for i, s in enumerate(sources):
            np.testing.assert_allclose(rows[i], reference.distances_from(s))
        assert oracle.cached_sources == 2

    def test_route_costs_matches_distance(self, graph):
        batched = PathOracle(graph)
        single = PathOracle(graph)
        gen = RngStreams(3).stream("pairs")
        n = graph.num_vertices
        pairs = [
            (int(gen.integers(n)), int(gen.integers(n))) for _ in range(200)
        ]
        costs = batched.route_costs(pairs)
        expected = [single.distance(u, v) for u, v in pairs]
        np.testing.assert_allclose(costs, expected)

    def test_route_costs_empty(self, graph):
        oracle = PathOracle(graph)
        assert oracle.route_costs([]).shape == (0,)

    def test_route_costs_same_endpoint_is_zero(self, graph):
        oracle = PathOracle(graph)
        assert oracle.route_costs([(4, 4)])[0] == 0.0

    def test_prewarm_makes_sweep_all_hits(self, graph):
        oracle = PathOracle(graph)
        sources = [0, 3, 9, 12]
        computed = oracle.prewarm(sources)
        assert computed == len(sources)
        before = oracle.cache_misses
        for s in sources:
            oracle.distance(s, 20)
        assert oracle.cache_misses == before
        assert oracle.prewarm(sources) == 0  # idempotent

    def test_cache_stats_snapshot(self, graph):
        oracle = PathOracle(graph)
        stats = oracle.cache_stats()
        assert stats["hit_rate"] != stats["hit_rate"]  # NaN before lookups
        oracle.distance(0, 5)
        oracle.distance(0, 9)
        stats = oracle.cache_stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["dijkstra_runs"] == 1
        assert stats["hit_rate"] == pytest.approx(0.5)
        oracle.reset_stats()
        assert oracle.cache_stats()["misses"] == 0
        assert oracle.cached_sources == 1  # rows survive a stats reset


class TestBackendParity:
    """Property check: the pure-Python and scipy backends agree on seeded
    transit-stub graphs — identical distance vectors, equal-cost paths."""

    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_distance_vectors_identical(self, seed):
        topo = generate_transit_stub(TransitStubParams(), RngStreams(seed))
        g = topo.graph
        fast = PathOracle(g, use_scipy=True)
        slow = PathOracle(g, use_scipy=False)
        sources = [0, 5, g.num_vertices // 2, g.num_vertices - 1]
        np.testing.assert_allclose(
            fast.distances_many(sources),
            slow.distances_many(sources),
        )

    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_paths_have_equal_cost(self, seed):
        topo = generate_transit_stub(TransitStubParams(), RngStreams(seed))
        g = topo.graph
        fast = PathOracle(g, use_scipy=True)
        slow = PathOracle(g, use_scipy=False)

        def path_cost(p):
            return sum(g.edge_weight(u, v) for u, v in zip(p, p[1:]))

        for s in (0, 9):
            for t in (1, g.num_vertices // 3, g.num_vertices - 1):
                pf, ps = fast.path(s, t), slow.path(s, t)
                assert (pf == []) == (ps == [])
                if pf:
                    assert pf[0] == ps[0] == s and pf[-1] == ps[-1] == t
                    assert path_cost(pf) == pytest.approx(path_cost(ps))
                    assert path_cost(pf) == pytest.approx(fast.distance(s, t))


class TestVertexRange:
    """Vertex ids outside ``[0, n)`` raise instead of wrapping around
    (``row[-1]`` is the last vertex) or caching a phantom source."""

    @pytest.fixture
    def oracle(self):
        topo = generate_transit_stub(TransitStubParams(), RngStreams(5))
        return PathOracle(topo.graph, domain_of=topo.router_domain)

    @pytest.mark.parametrize("bad", [-1, 10**6])
    def test_every_query_rejects_it(self, oracle, bad):
        n = oracle.graph.num_vertices
        bad = min(bad, n)
        for call in (
            lambda: oracle.distance(0, bad),
            lambda: oracle.distance(bad, 0),
            lambda: oracle.route_costs([(0, 1), (0, bad)]),
            lambda: oracle.route_costs([(bad, 0)]),
            lambda: oracle.distances_many([0, bad]),
            lambda: oracle.prewarm([bad]),
            lambda: oracle.distances_from(bad),
            lambda: oracle.path(0, bad),
            lambda: oracle.path(bad, 0),
            lambda: oracle.hop_count(bad, 0),
        ):
            with pytest.raises(IndexError, match="out of range"):
                call()
        assert bad not in oracle._dist_cache
        assert not oracle._parent_cache

    def test_last_vertex_is_still_reachable(self, oracle):
        n = oracle.graph.num_vertices
        assert oracle.distance(0, n - 1) == dijkstra_csr(oracle.graph, 0)[0][n - 1]


class TestRouteCostsGather:
    def test_ten_thousand_pairs_over_two_thousand_sources(self):
        """One gather prices what the per-pair loop priced: same values,
        same sources charged (the symmetry swap), same counters."""
        n = 2048
        gen = np.random.default_rng(15)
        g = Graph()
        g.add_vertices(n)
        for i in range(n):
            g.add_edge(i, (i + 1) % n, float(gen.uniform(1.0, 4.0)))
        for a, b in gen.integers(0, n, size=(n, 2)).tolist():
            if a != b and not g.has_edge(a, b):
                g.add_edge(a, b, float(gen.uniform(1.0, 9.0)))
        g.freeze()
        pool = gen.choice(n, size=2000, replace=False)
        us = gen.permutation(np.concatenate([pool, gen.choice(pool, size=8000)]))
        pairs = np.stack([us, gen.integers(0, n, size=10_000)], axis=1).tolist()
        oracle = PathOracle(g)
        model = FullRowOracle(g, row=PathOracle(g).distances_from)
        # Some second endpoints are cached beforehand, so their pairs swap.
        for _, v in pairs[:40]:
            assert oracle.distance(v, 0) == model.distance(v, 0)
        costs = oracle.route_costs(pairs)
        assert np.array_equal(costs, model.route_costs(pairs))
        assert oracle.batch_calls == 1
        assert {k: oracle.cache_stats()[k] for k in model.counters()} == model.counters()
        assert list(oracle._dist_cache) == list(model.cached)
        assert oracle.cached_sources > 1950  # a few pool sources were swapped away


def _weighted(n, edges):
    g = Graph()
    g.add_vertices(n)
    for u, v, w in edges:
        g.add_edge(u, v, w)
    g.freeze()
    return g


class TestDomainHint:
    """The domain map is a hint: the oracle keeps a domain only when the
    arcs show it hangs off the core by exactly one edge."""

    # 0-1-2 core triangle; {3, 4} hangs off 0; {5, 6} hangs off 2.
    EDGES = [
        (0, 1, 1.0), (1, 2, 2.0), (0, 2, 2.5),
        (3, 4, 1.5), (3, 0, 4.0),
        (5, 6, 0.5), (6, 2, 3.0),
    ]
    HINT = [-1, -1, -1, 7, 7, 2, 2]

    def pieces(self, edges, hint, n=7):
        g = _weighted(n, edges)
        oracle = PathOracle(g, domain_of=np.asarray(hint))
        for s in range(n):
            want = dijkstra_csr(g, s)[0]
            got = [PathOracle(g, domain_of=np.asarray(hint)).distance(s, t) for t in range(n)]
            assert got == list(want)
            assert np.array_equal(oracle.distances_from(s), want)
        return len(oracle._pieces) - 1

    def test_pendant_domains_are_kept(self):
        assert self.pieces(self.EDGES, self.HINT) == 2

    def test_multi_homed_domain_is_core(self):
        assert self.pieces(self.EDGES + [(4, 1, 1.0)], self.HINT) == 1

    def test_wrong_member_demotes_its_domain(self):
        hint = list(self.HINT)
        hint[1] = 7  # a core router hinted into domain 7
        assert self.pieces(self.EDGES, hint) == 1

    def test_domains_hanging_off_each_other_are_core(self):
        edges = [(0, 1, 1.0), (2, 3, 1.0), (4, 5, 2.0), (3, 4, 1.0)]
        assert self.pieces(edges, [-1, -1, 0, 0, 1, 1], n=6) == 0

    def test_domain_behind_a_demoted_domain_is_kept(self):
        # {3, 4} is multi-homed, so it is core — and {5, 6} hangs off it.
        edges = [
            (0, 1, 1.0), (1, 2, 2.0),
            (3, 4, 1.5), (3, 0, 4.0), (4, 1, 1.0),
            (5, 6, 0.5), (5, 4, 3.0),
        ]
        assert self.pieces(edges, self.HINT) == 1

    def test_detached_domain_is_core_and_unreachable(self):
        edges = [e for e in self.EDGES if e != (6, 2, 3.0)]
        assert self.pieces(edges, self.HINT) == 1
        oracle = PathOracle(_weighted(7, edges), domain_of=np.asarray(self.HINT))
        assert oracle.distance(0, 5) == np.inf
        assert oracle.distance(3, 6) == np.inf

    def test_no_hint_is_one_core(self):
        g = _weighted(7, self.EDGES)
        oracle = PathOracle(g)
        assert len(oracle._pieces) == 1
        assert oracle.distance(4, 6) == dijkstra_csr(g, 4)[0][6]

    @pytest.mark.parametrize("hint", [[0, 1], [0.0] * 7, [[-1] * 7]])
    def test_malformed_hint_rejected(self, hint):
        with pytest.raises(ValueError, match="domain_of"):
            PathOracle(_weighted(7, self.EDGES), domain_of=np.asarray(hint))


_INT_WEIGHTS = st.integers(1, 3).map(float)
_FLOAT_WEIGHTS = st.floats(0.125, 16.0, allow_nan=False, allow_infinity=False)


@st.composite
def pendant_cases(draw):
    """A core plus hinted domains — pendant, chained behind another
    domain, multi-homed or detached, members not always connected, ids
    shuffled, labels arbitrary, sometimes one vertex mislabelled — and a
    sequence of oracle calls on it."""
    weight = draw(st.sampled_from((_INT_WEIGHTS, _FLOAT_WEIGHTS)))
    sizes = [draw(st.integers(1, 8))] + draw(st.lists(st.integers(1, 8), max_size=6))
    n = sum(sizes)
    ids = list(draw(st.permutations(range(n))))
    groups = [ids[sum(sizes[:i]) : sum(sizes[: i + 1])] for i in range(len(sizes))]
    edges = {}

    def connect(a, b):
        if a != b:
            edges[min(a, b), max(a, b)] = draw(weight)

    for group in groups:
        if draw(st.booleans()):
            for a, b in zip(group, group[1:]):
                connect(a, b)
        member = st.sampled_from(group)
        for a, b in draw(st.lists(st.tuples(member, member), max_size=2 * len(group))):
            connect(a, b)
    labels = draw(
        st.lists(st.integers(0, 40), min_size=len(groups) - 1, max_size=len(groups) - 1, unique=True)
    )
    hint = np.full(n, draw(st.sampled_from((-1, -7))), dtype=np.int64)
    for label, group in zip(labels, groups[1:]):
        hint[group] = label
        outside = st.sampled_from(sorted(set(ids) - set(group)))
        kind = draw(st.sampled_from(("pendant", "pendant", "chained", "multi-homed", "detached")))
        if kind == "pendant":
            connect(draw(st.sampled_from(group)), draw(st.sampled_from(groups[0])))
        elif kind != "detached":
            for _ in range(1 if kind == "chained" else 2):
                connect(draw(st.sampled_from(group)), draw(outside))
    if labels and draw(st.booleans()):
        hint[draw(st.integers(0, n - 1))] = draw(st.sampled_from(labels + [-1]))
    vertex = st.integers(0, n - 1)
    ops = draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("distance"), vertex, vertex),
                st.tuples(st.just("distance"), vertex, vertex),  # twice as likely
                st.tuples(st.just("route_costs"), st.lists(st.tuples(vertex, vertex), max_size=6)),
                st.tuples(st.just("prewarm"), st.lists(vertex, max_size=4)),
                st.tuples(st.just("distances_from"), vertex),
            ),
            min_size=1,
            max_size=30,
        )
    )
    return _weighted(n, [(u, v, w) for (u, v), w in edges.items()]), hint, ops


class TestDomainLazyParity:
    """Whatever part of a row the oracle computes, every value equals the
    full ``dijkstra_csr`` row's, and hits, misses, evictions, runs and LRU
    order are those of an oracle that keeps full rows."""

    @pytest.mark.parametrize("use_scipy", [True, False])
    @given(case=pendant_cases(), bound=st.sampled_from((None, 1, 2)))
    @settings(max_examples=120, deadline=None)
    def test_matches_full_rows(self, use_scipy, case, bound):
        graph, hint, ops = case
        oracle = PathOracle(
            graph, max_cached_sources=bound, use_scipy=use_scipy, domain_of=hint
        )
        model = FullRowOracle(graph, max_cached_sources=bound)
        for name, *args in ops:
            got = getattr(oracle, name)(*args)
            want = getattr(model, name)(*args)
            assert np.array_equal(got, want), (name, args)
        stats = oracle.cache_stats()
        assert {k: stats[k] for k in model.counters()} == model.counters()
        assert list(oracle._dist_cache) == list(model.cached)
        everyone = list(range(graph.num_vertices))
        assert np.array_equal(
            oracle.distances_many(everyone), np.stack([model.row(s) for s in everyone])
        )

    @given(case=pendant_cases())
    @settings(max_examples=60, deadline=None)
    def test_gateway_and_core_targets_from_every_source(self, case):
        """Every (source, target) pair on a fresh oracle each: core sources,
        gateways as targets, unreachable domains."""
        graph, hint, _ = case
        n = graph.num_vertices
        for s in range(n):
            oracle = PathOracle(graph, domain_of=hint)
            want = dijkstra_csr(graph, s)[0]
            assert [oracle.distance(s, t) for t in range(n)] == list(want)
            assert oracle.dijkstra_runs == min(n - 1, 1)


class TestFullSizeParity:
    """The benchmark's 7504-router underlay, both benchmark seeds."""

    @pytest.fixture(scope="class", params=[1, 2])
    def topo(self, request):
        return generate_transit_stub(
            params_for_router_count(7500), RngStreams(request.param)
        )

    def test_random_pairs_equal_full_rows(self, topo):
        sparse = pytest.importorskip("scipy.sparse")
        g = topo.graph
        n = g.num_vertices
        indptr, indices, weights = g.csr()
        matrix = sparse.csr_matrix((weights, indices, indptr), shape=(n, n))
        model = FullRowOracle(
            g,
            row=lambda s: sparse.csgraph.dijkstra(matrix, directed=False, indices=s),
        )
        oracle = PathOracle(g, domain_of=topo.router_domain)
        assert len(oracle._pieces) == 1 + len(topo.domains)
        gen = np.random.default_rng(n)
        pool = gen.choice(n, size=120, replace=False)
        us = gen.choice(pool, size=3000)
        vs = np.where(
            gen.random(3000) < 0.3, gen.choice(pool, size=3000), gen.integers(0, n, size=3000)
        )
        for u, v in zip(us.tolist(), vs.tolist()):
            assert oracle.distance(u, v) == model.distance(u, v)
        stats = oracle.cache_stats()
        assert {k: stats[k] for k in model.counters()} == model.counters()
        assert stats["segment_fills"] > 0

    def test_cold_cost_does_not_grow_with_router_count(self, topo):
        oracle = PathOracle(topo.graph, domain_of=topo.router_domain)
        ends = np.random.default_rng(7).choice(topo.num_routers, size=400, replace=False)
        for u, v in ends.reshape(200, 2).tolist():
            oracle.distance(u, v)
        assert oracle.dijkstra_runs == 200
        largest = max(len(members) for members in topo.domains.values())
        skeleton = len(topo.transit_routers) + len(topo.domains)
        assert oracle.dijkstra_vertices <= 200 * 2 * (largest + skeleton)
        assert oracle.dijkstra_vertices < 200 * topo.num_routers // 10
