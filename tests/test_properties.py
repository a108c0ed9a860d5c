"""Property-based tests (hypothesis) on the core data structures.

Invariants covered:

* key-space metrics (symmetry, triangle inequality, digit round-trips);
* LDT construction (partition exhaustiveness, tree validity, depth
  bounds) for arbitrary capacity vectors;
* state tables (merge freshness);
* graph shortest paths against a brute-force reference;
* overlay routing correctness for random member sets.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import LDTMember, build_ldt
from repro.net import Graph, PathOracle
from repro.overlay import ChordOverlay, KeySpace, PastryOverlay, StatePair, StateTable

SPACE = KeySpace(bits=16, digit_bits=4)
KEYS = st.integers(min_value=0, max_value=SPACE.size - 1)


class TestKeySpaceProperties:
    @given(a=KEYS, b=KEYS)
    def test_ring_distance_symmetric(self, a, b):
        assert SPACE.ring_distance(a, b) == SPACE.ring_distance(b, a)

    @given(a=KEYS, b=KEYS)
    def test_ring_distance_bounds(self, a, b):
        d = SPACE.ring_distance(a, b)
        assert 0 <= d <= SPACE.size // 2
        assert (d == 0) == (a == b)

    @given(a=KEYS, b=KEYS, c=KEYS)
    def test_ring_triangle_inequality(self, a, b, c):
        assert SPACE.ring_distance(a, c) <= SPACE.ring_distance(a, b) + SPACE.ring_distance(b, c)

    @given(a=KEYS, b=KEYS)
    def test_clockwise_antisymmetry(self, a, b):
        if a != b:
            assert SPACE.clockwise_distance(a, b) + SPACE.clockwise_distance(b, a) == SPACE.size

    @given(key=KEYS)
    def test_digits_reconstruct_key(self, key):
        digits = SPACE.digits(key)
        value = 0
        for d in digits:
            value = (value << SPACE.digit_bits) | d
        assert value == key

    @given(a=KEYS, b=KEYS)
    def test_shared_prefix_consistent_with_digits(self, a, b):
        n = SPACE.shared_prefix_length(a, b)
        da, db = SPACE.digits(a), SPACE.digits(b)
        assert da[:n] == db[:n]
        if n < SPACE.num_digits:
            assert da[n] != db[n]

    @given(keys=st.lists(KEYS, min_size=1, max_size=40, unique=True), target=KEYS)
    def test_nearest_key_is_argmin(self, keys, target):
        arr = np.asarray(sorted(keys), dtype=np.uint64)
        best = SPACE.nearest_key(arr, target)
        best_d = SPACE.ring_distance(best, target)
        for k in keys:
            assert best_d <= SPACE.ring_distance(k, target)

    @given(keys=st.lists(KEYS, min_size=1, max_size=40, unique=True), target=KEYS)
    def test_successor_key_is_min_clockwise(self, keys, target):
        arr = np.asarray(sorted(keys), dtype=np.uint64)
        succ = SPACE.successor_key(arr, target)
        d = SPACE.clockwise_distance(target, succ)
        for k in keys:
            assert d <= SPACE.clockwise_distance(target, k)


CAPACITIES = st.lists(
    st.integers(min_value=1, max_value=15), min_size=0, max_size=25
)


class TestLDTProperties:
    @given(caps=CAPACITIES, root_cap=st.integers(min_value=1, max_value=15))
    def test_tree_valid_and_exhaustive(self, caps, root_cap):
        root = LDTMember(key=0, capacity=float(root_cap))
        members = [LDTMember(key=i + 1, capacity=float(c)) for i, c in enumerate(caps)]
        tree = build_ldt(root, members)
        tree.validate()
        assert tree.num_members == len(caps)
        assert tree.message_count == len(caps)

    @given(caps=CAPACITIES)
    def test_depth_bounded_by_members(self, caps):
        tree = build_ldt(LDTMember(key=0, capacity=1.0), [
            LDTMember(key=i + 1, capacity=float(c)) for i, c in enumerate(caps)
        ])
        assert tree.depth <= len(caps)

    @given(
        caps=st.lists(st.integers(min_value=2, max_value=15), min_size=1, max_size=25),
        k=st.integers(min_value=2, max_value=8),
    )
    def test_uniform_capacity_k_depth_bound(self, caps, k):
        """With every capacity ≥ k, depth ≤ ceil(log_k n) + 1."""
        members = [LDTMember(key=i + 1, capacity=float(k)) for i in range(len(caps))]
        tree = build_ldt(LDTMember(key=0, capacity=float(k)), members)
        bound = math.ceil(math.log(len(members), k)) + 1 if len(members) > 1 else 1
        assert tree.depth <= bound + 1

    @given(caps=CAPACITIES, used=st.floats(min_value=0.0, max_value=0.9))
    def test_workload_never_loses_members(self, caps, used):
        members = [
            LDTMember(key=i + 1, capacity=float(c), used=float(c) * used)
            for i, c in enumerate(caps)
        ]
        tree = build_ldt(LDTMember(key=0, capacity=5.0), members)
        assert set(tree.nodes) == {0} | {m.key for m in members}


class TestStateTableProperties:
    @given(
        updates=st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=20),  # key
                st.floats(min_value=0, max_value=100),  # refreshed_at
            ),
            max_size=40,
        )
    )
    def test_merge_keeps_freshest(self, updates):
        table = StateTable(SPACE, owner_key=0)
        freshest = {}
        for key, at in updates:
            table.insert(StatePair(key=key, refreshed_at=at, ttl=1000.0))
            freshest[key] = max(freshest.get(key, -1.0), at)
        for key, at in freshest.items():
            assert table.get(key).refreshed_at == at
        assert len(table) == len(freshest)


def _random_graph(draw_edges, n):
    g = Graph()
    g.add_vertices(n)
    for (u, v), w in draw_edges:
        if u != v and not g.has_edge(u % n, v % n) and u % n != v % n:
            g.add_edge(u % n, v % n, w)
    return g


class TestShortestPathProperties:
    @given(
        n=st.integers(min_value=2, max_value=12),
        edges=st.lists(
            st.tuples(
                st.tuples(st.integers(0, 11), st.integers(0, 11)),
                st.floats(min_value=0.1, max_value=10.0),
            ),
            min_size=1,
            max_size=40,
        ),
    )
    @settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
    def test_dijkstra_matches_bellman_ford(self, n, edges):
        g = _random_graph(edges, n)
        g.freeze()
        oracle = PathOracle(g)
        dist = oracle.distances_from(0)
        # Brute-force Bellman-Ford reference.
        ref = [math.inf] * n
        ref[0] = 0.0
        edge_list = list(g.edges())
        for _ in range(n):
            for u, v, w in edge_list:
                if ref[u] + w < ref[v]:
                    ref[v] = ref[u] + w
                if ref[v] + w < ref[u]:
                    ref[u] = ref[v] + w
        for v in range(n):
            if math.isinf(ref[v]):
                assert math.isinf(dist[v])
            else:
                assert dist[v] == pytest.approx(ref[v])


class TestOverlayProperties:
    @given(
        keys=st.lists(KEYS, min_size=2, max_size=48, unique=True),
        target=KEYS,
    )
    @settings(max_examples=60, deadline=None)
    def test_chord_routes_from_every_member(self, keys, target):
        ov = ChordOverlay(SPACE)
        ov.build(keys)
        owner = ov.owner_of(target)
        for src in keys[:6]:
            r = ov.route(src, target)
            assert r.success
            assert r.terminus == owner

    @given(
        keys=st.lists(KEYS, min_size=2, max_size=48, unique=True),
        target=KEYS,
    )
    @settings(max_examples=60, deadline=None)
    def test_pastry_routes_from_every_member(self, keys, target):
        ov = PastryOverlay(SPACE)
        ov.build(keys)
        owner = ov.owner_of(target)
        for src in keys[:6]:
            r = ov.route(src, target)
            assert r.success
            assert r.terminus == owner
