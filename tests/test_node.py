"""Tests for repro.core.node — BristleNode and registry bookkeeping."""

import math

import pytest

from repro.core import BristleNode, RegistryEntry


@pytest.fixture
def node(space):
    return BristleNode(key=500, mobile=True, capacity=4.0, space=space)


class TestCapacity:
    def test_available(self, node):
        assert node.available == 4.0
        node.consume(1.5)
        assert node.available == 2.5

    def test_overload_allowed(self, node):
        node.consume(10.0)
        assert node.available == -6.0

    def test_release_floor_zero(self, node):
        node.consume(2.0)
        node.release(5.0)
        assert node.used == 0.0

    def test_negative_amounts_rejected(self, node):
        for amount in (-1.0, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                node.consume(amount)
            with pytest.raises(ValueError):
                node.release(amount)
        assert node.used == 0.0

    def test_non_positive_capacity_rejected(self, space):
        for capacity in (0.0, -1.0, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                BristleNode(key=1, mobile=False, capacity=capacity, space=space)

    def test_invalid_key_rejected(self, space):
        with pytest.raises(ValueError):
            BristleNode(key=space.size, mobile=False, capacity=1.0, space=space)


class TestRegistry:
    def test_register_and_entries_sorted(self, node):
        node.register(RegistryEntry(key=30, capacity=2.0))
        node.register(RegistryEntry(key=10, capacity=5.0))
        entries = node.registry_entries()
        assert [e.key for e in entries] == [10, 30]

    def test_register_idempotent_per_key(self, node):
        node.register(RegistryEntry(key=30, capacity=2.0))
        node.register(RegistryEntry(key=30, capacity=7.0))
        assert len(node.registry) == 1
        assert node.registry[30].capacity == 7.0

    def test_self_registration_rejected(self, node):
        with pytest.raises(ValueError):
            node.register(RegistryEntry(key=500, capacity=1.0))

    def test_unregister(self, node):
        node.register(RegistryEntry(key=30, capacity=2.0))
        node.unregister(30)
        assert 30 not in node.registry
        node.unregister(30)  # idempotent

    def test_state_table_owner(self, node):
        assert node.state.owner_key == 500
