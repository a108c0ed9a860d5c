"""Tests for repro.core.ldt — the Fig-4 advertisement algorithm."""

import pytest

from repro.core import LDTMember, build_ldt, ldt_depth_bound


def members(caps, used=0.0):
    return [LDTMember(key=i + 1, capacity=float(c), used=used) for i, c in enumerate(caps)]


ROOT = LDTMember(key=0, capacity=4.0)


class TestBuildBasics:
    def test_empty_registry(self):
        tree = build_ldt(ROOT, [])
        assert tree.num_members == 0
        assert tree.depth == 0
        assert tree.message_count == 0
        tree.validate()

    def test_every_member_reached_exactly_once(self):
        tree = build_ldt(ROOT, members([3, 1, 4, 1, 5, 9, 2, 6]))
        assert tree.num_members == 8
        assert tree.message_count == 8  # one send per member
        tree.validate()

    def test_duplicate_keys_rejected(self):
        with pytest.raises(ValueError):
            build_ldt(ROOT, [LDTMember(1, 2.0), LDTMember(1, 3.0)])

    def test_root_in_registry_rejected(self):
        with pytest.raises(ValueError):
            build_ldt(ROOT, [LDTMember(0, 2.0)])

    def test_non_positive_unit_cost_rejected(self):
        with pytest.raises(ValueError):
            build_ldt(ROOT, members([1]), unit_cost=0.0)


class TestOverloadedChain:
    def test_unit_capacity_degenerates_to_chain(self):
        """Avail − v ≤ 0 everywhere → each node hands off to one head:
        the tree is a chain of depth = registry size."""
        root = LDTMember(key=0, capacity=1.0)
        tree = build_ldt(root, members([1] * 10), unit_cost=1.0)
        assert tree.depth == 10
        assert all(len(n.children) <= 1 for n in tree.nodes.values())
        tree.validate()

    def test_overloaded_root_delegates_to_strongest(self):
        root = LDTMember(key=0, capacity=2.0, used=1.5)  # Avail = 0.5 < v
        regs = members([5, 9, 2])
        tree = build_ldt(root, regs, unit_cost=1.0)
        # Root has exactly one child: the capacity-9 node (key 2).
        assert tree.children_of(0) == [2]
        assert tree.nodes[2].assigned == 3

    def test_used_workload_lengthens_tree(self):
        """§4.2: heavy workload → deeper trees."""
        light = build_ldt(LDTMember(0, 4.0), members([4] * 12), unit_cost=1.0)
        heavy = build_ldt(
            LDTMember(0, 4.0, used=3.5), members([4] * 12, used=3.5), unit_cost=1.0
        )
        assert heavy.depth > light.depth


class TestPartitioning:
    def test_branching_follows_available_capacity(self):
        root = LDTMember(key=0, capacity=3.0)  # k = 3 partitions
        tree = build_ldt(root, members([2] * 9), unit_cost=1.0)
        assert len(tree.children_of(0)) == 3

    def test_partitions_nearly_equal(self):
        """Fig 4's guarantee: partition sizes differ by at most one."""
        root = LDTMember(key=0, capacity=4.0)
        tree = build_ldt(root, members(range(1, 15)), unit_cost=1.0)
        sizes = [tree.nodes[c].assigned for c in tree.children_of(0)]
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == 14

    def test_heads_are_highest_capacity(self):
        """Round-robin over a decreasing list puts the k strongest nodes
        at the partition heads (the paper's super-node exploitation)."""
        caps = [15, 14, 13, 3, 2, 1, 1, 1, 1]
        root = LDTMember(key=0, capacity=3.0)
        tree = build_ldt(root, members(caps), unit_cost=1.0)
        head_caps = sorted(tree.nodes[c].member.capacity for c in tree.children_of(0))
        assert head_caps == [13.0, 14.0, 15.0]

    def test_branching_capped_by_members(self):
        root = LDTMember(key=0, capacity=100.0)
        tree = build_ldt(root, members([1, 1]), unit_cost=1.0)
        assert len(tree.children_of(0)) == 2
        assert tree.depth == 1

    def test_assigned_zero_for_leaves(self):
        tree = build_ldt(LDTMember(0, 8.0), members([1] * 6), unit_cost=1.0)
        leaves = [n for n in tree.nodes.values() if not n.children and n.level > 0]
        # A leaf that headed a singleton partition has assigned == 1;
        # non-head members would have 0, but with root capacity 8 > 6
        # every member is a singleton head.
        assert all(n.assigned == 1 for n in leaves)


class TestLevelsAndCosts:
    def test_level_histogram(self):
        tree = build_ldt(LDTMember(0, 2.0), members([2] * 6), unit_cost=1.0)
        hist = tree.level_histogram()
        assert sum(hist.values()) == 6
        assert 0 not in hist  # root excluded

    def test_edge_costs_and_total(self):
        tree = build_ldt(LDTMember(0, 4.0), members([1, 1, 1]))
        dist = lambda a, b: abs(a - b) * 10.0  # noqa: E731
        costs = tree.edge_costs(dist)
        assert len(costs) == tree.message_count
        assert tree.total_cost(dist) == pytest.approx(sum(costs))

    def test_edge_costs_batched_oracle_matches_scalar(self):
        """A distance object with ``route_costs`` takes the batched path
        and must agree with the scalar-callable fallback edge for edge."""

        class BatchedDist:
            def __call__(self, a, b):
                return abs(a - b) * 10.0

            def route_costs(self, pairs):
                return [abs(a - b) * 10.0 for a, b in pairs]

        tree = build_ldt(LDTMember(0, 3.0), members([3, 1, 4, 1, 5]))
        scalar = tree.edge_costs(lambda a, b: abs(a - b) * 10.0)
        batched = tree.edge_costs(BatchedDist())
        assert batched == pytest.approx(scalar)
        assert tree.total_cost(BatchedDist()) == pytest.approx(sum(scalar))

    def test_edge_costs_empty_tree(self):
        tree = build_ldt(LDTMember(0, 4.0), [])
        assert tree.edge_costs(lambda a, b: 1.0) == []
        assert tree.total_cost(lambda a, b: 1.0) == 0.0

    def test_level_histogram_matches_manual_count(self):
        tree = build_ldt(LDTMember(0, 2.0), members([1, 2, 3, 4, 5, 6, 7]))
        manual = {}
        for node in tree.nodes.values():
            if node.level > 0:
                manual[node.level] = manual.get(node.level, 0) + 1
        assert tree.level_histogram() == manual

    def test_depth_and_message_count_cached(self):
        """The wave summary is derived once, at construction, and agrees
        with the object views materialised afterwards."""
        tree = build_ldt(LDTMember(0, 3.0), members([2] * 9))
        assert tree._nodes is None  # nothing materialised yet
        assert tree.depth == max(tree.levels)
        assert tree.message_count == 9 == sum(tree.fanouts)
        interior = [(k, len(n.children)) for k, n in tree.nodes.items() if n.children]
        assert list(zip(tree.interior_keys, tree.fanouts)) == interior
        assert tree.message_count == len(tree.edges)

    def test_tie_break_changes_order(self):
        """Equal capacities: the tie-break callable decides head choice."""
        regs = members([2, 2, 2, 2])
        by_key = build_ldt(LDTMember(0, 1.9), regs, unit_cost=1.0)
        reversed_tie = build_ldt(
            LDTMember(0, 1.9), regs, unit_cost=1.0, tie_break=lambda m: -m.key
        )
        assert by_key.children_of(0) != reversed_tie.children_of(0)

    def test_deterministic(self):
        regs = members([5, 3, 3, 8, 1, 1])
        t1 = build_ldt(LDTMember(0, 3.0), regs)
        t2 = build_ldt(LDTMember(0, 3.0), regs)
        assert t1.edges == t2.edges


class TestDepthBound:
    def test_chain_bound(self):
        assert ldt_depth_bound(10, 1) == 10.0

    def test_kway_bound(self):
        assert ldt_depth_bound(16, 4) == pytest.approx(3.0)

    def test_empty(self):
        assert ldt_depth_bound(0, 4) == 0.0

    def test_measured_depth_within_bound(self):
        for k in (2, 3, 4):
            tree = build_ldt(
                LDTMember(0, float(k)), members([k] * 20), unit_cost=1.0
            )
            assert tree.depth <= ldt_depth_bound(20, k) + 2
