"""Tests for repro.core.ldt_forest — the batch LDT builder.

The forest engine's contract is equality with the scalar builder
(``build_ldt``): for every spec in a batch, ``forest.tree(i)`` must equal
its tree exactly — node insertion order, edge DFS pre-order, children
order, levels and assigned counts included.  Both builders against the
Fig-4 recursion itself: ``tests/test_ldt_parity.py``.
"""

import math

import numpy as np
import pytest

from repro.core import (
    BristleConfig,
    BristleNetwork,
    ForestSpec,
    LDTMember,
    build_forest_columns,
    build_ldt,
    build_ldt_forest,
    forest_depths,
)


def members(caps, used=0.0, start=1):
    return [
        LDTMember(key=start + i, capacity=float(c), used=used)
        for i, c in enumerate(caps)
    ]


def random_spec(rng, size, regime, root_key):
    """One registry in a given capacity regime."""
    keys = [int(k) for k in rng.permutation(size) + 1]
    if regime == "fanout":
        caps = rng.integers(1, 16, size=size).astype(float)
        used = rng.uniform(0.0, 0.5, size=size)
        root = LDTMember(key=root_key, capacity=float(rng.integers(2, 16)))
    elif regime == "chain":
        # Avail − v ≤ 0 everywhere: every sender delegates to one head.
        caps = np.ones(size)
        used = np.zeros(size)
        root = LDTMember(key=root_key, capacity=1.0)
    elif regime == "zero":
        # Zero-availability senders mixed in: used ≥ capacity.
        caps = rng.integers(1, 6, size=size).astype(float)
        used = caps * rng.uniform(0.8, 1.4, size=size)
        root = LDTMember(key=root_key, capacity=2.0, used=1.5)
    else:  # mixed
        caps = rng.integers(1, 8, size=size).astype(float)
        used = rng.uniform(0.0, 2.0, size=size)
        root = LDTMember(key=root_key, capacity=float(rng.integers(1, 8)))
    registry = [
        LDTMember(key=k, capacity=float(c), used=float(u))
        for k, c, u in zip(keys, caps, used)
    ]
    return ForestSpec(root=root, registry=registry)


def assert_tree_equal(actual, expected):
    """Bit-identity including insertion/DFS order, not just set equality."""
    assert actual.root_key == expected.root_key
    assert list(actual.nodes) == list(expected.nodes)
    assert actual.edges == expected.edges
    for key, node in expected.nodes.items():
        got = actual.nodes[key]
        assert got.level == node.level
        assert got.parent == node.parent
        assert got.assigned == node.assigned
        assert got.children == node.children
        assert got.member == node.member


class TestForestParity:
    @pytest.mark.parametrize("regime", ["fanout", "chain", "zero", "mixed"])
    def test_randomized_parity(self, regime):
        rng = np.random.default_rng(hash(regime) % (2**32))
        specs = [
            random_spec(rng, int(rng.integers(1, 40)), regime, -(t + 1))
            for t in range(25)
        ]
        forest = build_ldt_forest(specs)
        for t, spec in enumerate(specs):
            expected = build_ldt(spec.root, spec.registry, spec.unit_cost)
            assert_tree_equal(forest.tree(t), expected)

    def test_mixed_regimes_in_one_batch(self):
        rng = np.random.default_rng(7)
        specs = [
            random_spec(rng, 12, regime, -(i + 1))
            for i, regime in enumerate(
                ["fanout", "chain", "zero", "mixed"] * 4
            )
        ]
        forest = build_ldt_forest(specs)
        for t, spec in enumerate(specs):
            assert_tree_equal(
                forest.tree(t), build_ldt(spec.root, spec.registry)
            )

    def test_empty_and_single_member_registries(self):
        specs = [
            ForestSpec(root=LDTMember(key=-1, capacity=3.0), registry=[]),
            ForestSpec(
                root=LDTMember(key=-2, capacity=3.0),
                registry=members([5], start=10),
            ),
            ForestSpec(root=LDTMember(key=-3, capacity=1.0), registry=[]),
        ]
        forest = build_ldt_forest(specs)
        assert forest.num_trees == 3
        assert forest.num_members == 1
        for t, spec in enumerate(specs):
            assert_tree_equal(
                forest.tree(t), build_ldt(spec.root, spec.registry)
            )

    def test_custom_tie_break(self):
        rng = np.random.default_rng(11)
        tie = lambda m: -float(m.key)  # noqa: E731 — reverse key order
        specs = []
        for t in range(10):
            spec = random_spec(rng, 20, "fanout", -(t + 1))
            # Equal capacities make the secondary key decisive.
            registry = [
                LDTMember(key=m.key, capacity=4.0, used=0.0)
                for m in spec.registry
            ]
            specs.append(
                ForestSpec(root=spec.root, registry=registry, tie_break=tie)
            )
        forest = build_ldt_forest(specs)
        for t, spec in enumerate(specs):
            expected = build_ldt(
                spec.root, spec.registry, tie_break=spec.tie_break
            )
            assert_tree_equal(forest.tree(t), expected)

    def test_per_spec_unit_cost(self):
        rng = np.random.default_rng(13)
        specs = [
            ForestSpec(
                root=LDTMember(key=-(t + 1), capacity=6.0),
                registry=random_spec(rng, 15, "fanout", 0).registry,
                unit_cost=float(c),
            )
            for t, c in enumerate([0.5, 1.0, 2.0, 3.0])
        ]
        forest = build_ldt_forest(specs)
        for t, spec in enumerate(specs):
            expected = build_ldt(spec.root, spec.registry, spec.unit_cost)
            assert_tree_equal(forest.tree(t), expected)

    def test_trees_iterator_covers_batch(self):
        rng = np.random.default_rng(17)
        specs = [random_spec(rng, 8, "mixed", -(t + 1)) for t in range(5)]
        forest = build_ldt_forest(specs)
        assert len(list(forest.trees())) == 5


class TestForestErrors:
    def test_duplicate_keys_rejected(self):
        spec = ForestSpec(
            root=LDTMember(key=0, capacity=4.0),
            registry=[LDTMember(1, 2.0), LDTMember(1, 3.0)],
        )
        with pytest.raises(ValueError, match="duplicate"):
            build_ldt_forest([spec])

    def test_cross_tree_duplicates_allowed(self):
        # The same key in two different registries is fine — uniqueness
        # is per tree, matching the sequential builder.
        specs = [
            ForestSpec(
                root=LDTMember(key=-(t + 1), capacity=4.0),
                registry=members([2, 3, 4]),
            )
            for t in range(2)
        ]
        forest = build_ldt_forest(specs)
        assert forest.num_members == 6

    def test_root_in_registry_rejected(self):
        spec = ForestSpec(
            root=LDTMember(key=5, capacity=4.0),
            registry=[LDTMember(5, 2.0)],
        )
        with pytest.raises(ValueError, match="root"):
            build_ldt_forest([spec])

    def test_non_positive_unit_cost_rejected(self):
        for unit_cost in (0.0, -1.0, math.nan):
            spec = ForestSpec(
                root=LDTMember(key=0, capacity=4.0),
                registry=members([2]),
                unit_cost=unit_cost,
            )
            with pytest.raises(ValueError, match="unit_cost"):
                build_ldt_forest([spec])

    def test_empty_batch(self):
        forest = build_ldt_forest([])
        assert forest.num_trees == 0
        assert forest.num_members == 0


class TestForestColumns:
    def _forest(self, seed=23, n=12):
        rng = np.random.default_rng(seed)
        specs = [
            random_spec(rng, int(rng.integers(1, 30)), "mixed", -(t + 1))
            for t in range(n)
        ]
        return specs, build_ldt_forest(specs)

    def test_column_stats_match_trees(self):
        specs, forest = self._forest()
        depths = forest.depths()
        msgs = forest.message_counts()
        for t, spec in enumerate(specs):
            tree = build_ldt(spec.root, spec.registry)
            assert int(depths[t]) == tree.depth
            assert int(msgs[t]) == tree.message_count

    def test_level_histogram_matches_trees(self):
        specs, forest = self._forest(seed=29)
        hist = forest.level_histogram()
        expected = {}
        for spec in specs:
            for lvl, n in build_ldt(spec.root, spec.registry).level_histogram().items():
                expected[lvl] = expected.get(lvl, 0) + n
        got = {i: int(c) for i, c in enumerate(hist) if i > 0 and c > 0}
        assert got == expected

    def test_edge_arrays_level_major_order(self):
        _, forest = self._forest(seed=31)
        parents, children = forest.edge_arrays()
        assert parents.size == forest.num_members
        # Canonical order: grouped by tree, level non-decreasing within.
        child_rows = np.searchsorted(
            np.sort(forest.key), children
        )  # children is a permutation of key
        tree_of = forest.tree_id[
            np.lexsort((np.arange(forest.level.size), forest.level, forest.tree_id))
        ]
        assert np.all(np.diff(tree_of) >= 0)
        levels = forest.level[
            np.lexsort((np.arange(forest.level.size), forest.level, forest.tree_id))
        ]
        for t in range(forest.num_trees):
            mask = tree_of == t
            assert np.all(np.diff(levels[mask]) >= 0)
        # Every edge links a parent exactly one level up.
        del child_rows

    def test_forest_depths_kernel(self):
        offsets = np.array([0, 0, 3, 5], dtype=np.int64)
        level = np.array([1, 2, 2, 1, 1], dtype=np.int64)
        assert forest_depths(offsets, level).tolist() == [0, 2, 1]

    def test_build_forest_columns_direct(self):
        # Three chains of unit capacity: levels must be 1..n per tree.
        offsets = np.array([0, 4, 7], dtype=np.int64)
        avail = np.ones(7)
        roots = np.ones(2)
        unit = np.ones(2)
        level, assigned, parent_row = build_forest_columns(
            offsets, avail, roots, unit
        )
        assert sorted(level[:4].tolist()) == [1, 2, 3, 4]
        assert sorted(level[4:].tolist()) == [1, 2, 3]
        assert np.all(assigned >= 1)


class TestNetworkBatchPaths:
    def _net(self, seed=19):
        cfg = BristleConfig(seed=seed, naming="scrambled")
        net = BristleNetwork(cfg, num_stationary=30, num_mobile=20, router_count=80)
        net.setup_random_registrations()
        return net

    def test_build_ldt_for_group_matches_direct(self):
        net = self._net(seed=27)
        group = sorted(
            mk for mk in net.mobile_keys if net.nodes[mk].registry
        )[:4]
        root_key, tree = net.build_ldt_for_group(group)
        # Rebuild the same coalesced inputs — the union of the registries,
        # each registrant once, the co-hosted keys themselves left out —
        # and run the scalar builder.
        rep_node = net.nodes[root_key]
        root = LDTMember(
            key=root_key, capacity=rep_node.capacity, used=rep_node.used
        )
        audience = {e.key for k in group for e in net.nodes[k].registry_entries()}
        merged = [
            LDTMember(key=r, capacity=net.nodes[r].capacity, used=net.nodes[r].used)
            for r in sorted(audience - set(group))
        ]
        expected = build_ldt(root, merged, net.config.unit_advertise_cost)
        assert_tree_equal(tree, expected)
