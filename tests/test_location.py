"""Tests for repro.core.location — directory and registrations."""

import pytest

from repro.core import BristleNode, LocationDirectory, RegistrationManager
from repro.core.location import ExpiryHeap, LocationRecord
from repro.net import NetworkAddress
from repro.overlay import ChordOverlay, make_overlay
from repro.sim import RngStreams

ADDR = NetworkAddress(router=5, port=9)
ADDR2 = NetworkAddress(router=6, port=9, epoch=1)


@pytest.fixture
def stationary_layer(space):
    rng = RngStreams(61)
    keys = [int(k) for k in space.random_keys(rng, "keys", 40)]
    ov = ChordOverlay(space)
    ov.build(keys)
    return ov


@pytest.fixture
def directory(space, stationary_layer):
    return LocationDirectory(space, stationary_layer, replication=3)


class TestHolders:
    def test_holder_count(self, directory):
        assert len(directory.holders_for(12345)) == 3

    def test_holders_are_stationary_members(self, directory, stationary_layer):
        for h in directory.holders_for(999999):
            assert stationary_layer.is_member(h)

    def test_owner_is_first_holder(self, directory, stationary_layer):
        key = 777777
        assert directory.holders_for(key)[0] == stationary_layer.owner_of(key)

    def test_holders_distinct(self, directory):
        holders = directory.holders_for(5)
        assert len(set(holders)) == len(holders)

    def test_replication_capped_by_layer_size(self, space):
        ov = ChordOverlay(space)
        ov.build([10, 20])
        d = LocationDirectory(space, ov, replication=5)
        assert len(d.holders_for(15)) == 2

    def test_invalid_replication(self, space, stationary_layer):
        with pytest.raises(ValueError):
            LocationDirectory(space, stationary_layer, replication=0)

    def test_single_node_layer(self, space):
        ov = ChordOverlay(space)
        ov.build([10])
        d = LocationDirectory(space, ov, replication=3)
        assert d.holders_for(12345) == [10]

    def test_ring_wrap(self, space):
        """Replica expansion wraps around the top of the identifier ring."""
        top = space.size - 10
        ov = ChordOverlay(space)
        ov.build([10, 20, top])
        d = LocationDirectory(space, ov, replication=2)
        # A key just below the topmost member is owned by it; the replica
        # expansion's right ring-neighbour wraps around to 10.
        holders = d.holders_for(top - 3)
        assert holders == [top, 10]

    def test_holders_for_many_matches_per_key(self, directory, stationary_layer, space):
        rng = RngStreams(7)
        keys = [int(k) for k in space.random_keys(rng, "probe", 50)]
        batched = directory.holders_for_many(keys)
        assert set(batched) == set(keys)
        for k in keys:
            assert batched[k] == directory.holders_for(k)


class TestPublishResolve:
    def test_roundtrip(self, directory):
        directory.publish(4242, ADDR, now=0.0, ttl=10.0)
        assert directory.resolve(4242, now=5.0) == ADDR

    def test_expired_record_invisible(self, directory):
        directory.publish(4242, ADDR, now=0.0, ttl=10.0)
        assert directory.resolve(4242, now=10.5) is None

    def test_republish_updates(self, directory):
        directory.publish(4242, ADDR, now=0.0, ttl=10.0)
        directory.publish(4242, ADDR2, now=1.0, ttl=10.0)
        assert directory.resolve(4242, now=2.0) == ADDR2

    def test_resolve_unknown(self, directory):
        assert directory.resolve(31337, now=0.0) is None

    def test_resolve_at_specific_holder(self, directory):
        holders = directory.publish(4242, ADDR, now=0.0, ttl=10.0)
        for h in holders:
            assert directory.resolve_at(h, 4242, now=1.0) == ADDR
        non_holder_keys = [
            int(k) for k in directory.overlay.keys if int(k) not in set(holders)
        ]
        assert directory.resolve_at(non_holder_keys[0], 4242, now=1.0) is None

    def test_withdraw(self, directory):
        directory.publish(4242, ADDR, now=0.0, ttl=10.0)
        assert directory.withdraw(4242) == 3
        assert directory.resolve(4242, now=0.0) is None

    def test_withdraw_after_stationary_churn(self, directory, stationary_layer):
        """Satellite 1: withdrawal must target the holders that actually
        store the record, not ``holders_for`` recomputed after churn."""
        holders_before = directory.publish(4242, ADDR, now=0.0, ttl=10.0)
        # Churn: a node arrives right next to the key and takes ownership,
        # so holders_for(4242) now names a different set.
        stationary_layer.add_node(4243)
        assert directory.holders_for(4242)[0] == 4243
        assert directory.holders_for(4242) != holders_before
        removed = directory.withdraw(4242)
        assert removed == len(holders_before)
        assert directory.resolve(4242, now=0.0) is None
        assert all(4242 not in store for store in directory._stores.values())

    def test_withdraw_unknown_key_sweeps(self, directory):
        assert directory.withdraw(999) == 0
        # Double withdraw is a no-op, not an error.
        directory.publish(4242, ADDR, now=0.0, ttl=10.0)
        directory.withdraw(4242)
        assert directory.withdraw(4242) == 0

    def test_resolve_prefers_freshest_replica(self, directory):
        holders = directory.publish(4242, ADDR, now=0.0, ttl=100.0)
        # One replica got a newer record (e.g. a partially-propagated
        # republish); resolve must prefer it.
        directory._stores[holders[-1]][4242] = LocationRecord(
            key=4242, addr=ADDR2, published_at=5.0, ttl=100.0
        )
        assert directory.resolve(4242, now=6.0) == ADDR2

    def test_replicas_survive_primary_loss(self, directory, stationary_layer):
        """§2.3.2 availability: with k replicas, losing the primary still
        resolves."""
        holders = directory.publish(4242, ADDR, now=0.0, ttl=10.0)
        primary = holders[0]
        directory._stores[primary].pop(4242)  # simulate holder failure
        assert directory.resolve(4242, now=1.0) == ADDR

    def test_holder_load(self, directory):
        directory.publish(1, ADDR, now=0.0, ttl=10.0)
        directory.publish(2, ADDR, now=0.0, ttl=10.0)
        load = directory.holder_load()
        assert sum(load.values()) == 2 * 3  # two records × three replicas

    def test_rebalance_after_membership_change(self, directory, stationary_layer, space):
        directory.publish(4242, ADDR, now=0.0, ttl=10.0)
        # Remove the primary holder from the layer, then rebalance.
        primary = directory.holders_for(4242)[0]
        stationary_layer.remove_node(primary)
        # ``all_keys`` is the set of *records* still alive (mobile keys),
        # not the stationary membership.
        directory.rebalance_after_membership_change([4242], now=0.0)
        assert directory.resolve(4242, now=1.0) == ADDR
        assert primary not in directory.holders_for(4242)

    def test_rebalance_prunes_departed_keys(self, directory):
        directory.publish(4242, ADDR, now=0.0, ttl=10.0)
        directory.publish(5353, ADDR2, now=0.0, ttl=10.0)
        # 5353 left the system: it is absent from ``all_keys``.
        directory.rebalance_after_membership_change([4242], now=0.0)
        assert directory.resolve(4242, now=1.0) == ADDR
        assert directory.resolve(5353, now=1.0) is None
        assert all(5353 not in store for store in directory._stores.values())

    def test_rebalance_drops_expired_leases(self, directory):
        """Satellite 2: an expired lease must not be resurrected by churn
        rebalancing."""
        directory.publish(4242, ADDR, now=0.0, ttl=10.0)
        directory.publish(5353, ADDR2, now=0.0, ttl=100.0)
        # 4242's lease is dead at now=50; 5353's is alive.
        directory.rebalance_after_membership_change(None, now=50.0)
        assert directory.resolve(4242, now=50.0) is None
        assert all(4242 not in store for store in directory._stores.values())
        assert directory.resolve(5353, now=50.0) == ADDR2


class TestRegistrationManager:
    @pytest.fixture
    def nodes(self, space):
        out = {}
        for k, mobile in ((100, False), (200, True), (300, True), (400, False)):
            out[k] = BristleNode(key=k, mobile=mobile, capacity=float(k) / 100, space=space)
        return out

    def test_register_records_both_sides(self, nodes):
        mgr = RegistrationManager(nodes)
        mgr.register(100, 200)
        assert 100 in nodes[200].registry
        assert 200 in nodes[100].subscriptions
        assert nodes[200].registry[100].capacity == nodes[100].capacity
        assert mgr.registration_count == 1

    def test_register_idempotent(self, nodes):
        """Satellite 3: re-registering must not double-count."""
        mgr = RegistrationManager(nodes)
        assert mgr.register(100, 200) is True
        assert mgr.register(100, 200) is False
        assert mgr.registration_count == 1
        assert len(nodes[200].registry) == 1

    def test_register_refresh_updates_entry(self, nodes):
        mgr = RegistrationManager(nodes)
        mgr.register(100, 200, now=0.0)
        nodes[100].capacity = 9.0
        mgr.register(100, 200, now=5.0)
        entry = nodes[200].registry[100]
        assert entry.capacity == 9.0
        assert entry.registered_at == 5.0
        assert mgr.registration_count == 1

    def test_register_from_overlay_rerun_does_not_double_count(self, nodes, space):
        ov = ChordOverlay(space)
        ov.build(list(nodes))
        mgr = RegistrationManager(nodes)
        first = mgr.register_from_overlay(ov, mobile_only=True)
        assert first > 0
        assert mgr.register_from_overlay(ov, mobile_only=True) == 0
        assert mgr.registration_count == first

    def test_unregister(self, nodes):
        mgr = RegistrationManager(nodes)
        mgr.register(100, 200)
        mgr.unregister(100, 200)
        assert 100 not in nodes[200].registry
        assert 200 not in nodes[100].subscriptions

    def test_registry_sizes_mobile_only(self, nodes):
        mgr = RegistrationManager(nodes)
        mgr.register(100, 200)
        mgr.register(400, 200)
        mgr.register(100, 300)
        assert sorted(mgr.registry_sizes(mobile_only=True)) == [1, 2]

    def test_register_from_overlay_mobile_only(self, nodes, space):
        ov = ChordOverlay(space)
        ov.build(list(nodes))
        mgr = RegistrationManager(nodes)
        issued = mgr.register_from_overlay(ov, mobile_only=True)
        assert issued > 0
        # Only mobile nodes gained registrants.
        assert len(nodes[100].registry) == 0
        assert len(nodes[400].registry) == 0
        assert len(nodes[200].registry) > 0


class TestExpiryHeap:
    def test_pops_overdue_prefix_in_order(self):
        h = ExpiryHeap()
        for t, k in [(30.0, 3), (10.0, 1), (20.0, 2), (40.0, 4)]:
            h.push(t, k)
        assert h.pop_expired(25.0) == [(10.0, 1), (20.0, 2)]
        assert len(h) == 2
        # Strictness: a lease expiring exactly at ``now`` is still fresh.
        assert h.pop_expired(30.0) == []
        assert h.pop_expired(30.1) == [(30.0, 3)]

    def test_clear(self):
        h = ExpiryHeap()
        h.push(1.0, 1)
        h.clear()
        assert h.pop_expired(100.0) == []

    def test_directory_lazy_deletion_on_republish(self, space):
        ov = make_overlay("chord", space)
        ov.build([100, 2000, 50000, 700000])
        d = LocationDirectory(space, ov, replication=2)
        a = NetworkAddress(router=1, port=2)
        d.publish(42, a, now=0.0, ttl=10.0)
        # Re-publish with a longer lease: the stale heap entry must not
        # expire the fresh record.
        d.publish(42, a, now=5.0, ttl=100.0)
        assert d.expire_leases(20.0) == []
        assert d.resolve(42, 20.0) is not None
        # Withdrawal leaves a stale entry behind too.
        d.publish(43, a, now=0.0, ttl=10.0)
        d.withdraw(43)
        assert d.expire_leases(50.0) == []
