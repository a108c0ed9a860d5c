"""Tests for the batched multi-resource location-update path.

Covers the ROADMAP item-3 tentpole: ``LocationDirectory.publish_many``
(state bit-identical to sequential publishes, message count = distinct
holders), ``BristleNetwork.move_many`` (one attachment change + one
coalesced wave), ``BristleProtocol.advertise_many`` (one timed wave
renewing every co-hosted subscription), and the epoch-fingerprinted LDT
caches that keep :class:`EarlyBinding` refreshes sublinear.
"""

import numpy as np
import pytest

from repro.core import (
    BristleConfig,
    BristleNetwork,
    BristleProtocol,
    EarlyBinding,
    LocationDirectory,
)
from repro.core.location import shared_multicast_hops
from repro.net import NetworkAddress
from repro.overlay import ChordOverlay
from repro.sim import RngStreams


@pytest.fixture
def net():
    cfg = BristleConfig(seed=11, naming="scrambled", state_ttl=30.0, refresh_period=10.0)
    n = BristleNetwork(cfg, num_stationary=30, num_mobile=20, router_count=100)
    return n


def _group(net, size=5):
    return net.mobile_keys[:size]


class TestPublishMany:
    @pytest.fixture
    def layer(self, space):
        rng = RngStreams(31)
        keys = [int(k) for k in space.random_keys(rng, "keys", 40)]
        ov = ChordOverlay(space)
        ov.build(keys)
        return ov

    def _updates(self, space, count=16):
        rng = RngStreams(32)
        keys = [int(k) for k in space.random_keys(rng, "mobiles", count)]
        return {k: NetworkAddress(router=i, port=i + 1) for i, k in enumerate(keys)}

    def test_state_bit_identical_to_sequential(self, space, layer):
        """Acceptance criterion: a batched publish leaves the directory in
        exactly the state K sequential publishes produce."""
        updates = self._updates(space)
        seq = LocationDirectory(space, layer, replication=3)
        for k, addr in sorted(updates.items()):
            seq.publish(k, addr, now=2.0, ttl=10.0)
        bat = LocationDirectory(space, layer, replication=3)
        bat.publish_many(updates, now=2.0, ttl=10.0)
        assert bat._stores == seq._stores
        assert bat._holders_by_key == seq._holders_by_key
        assert bat.publish_count == seq.publish_count
        assert bat.batch_publish_count == 1

    def test_holders_match_per_key_path(self, space, layer):
        updates = self._updates(space)
        d = LocationDirectory(space, layer, replication=3)
        result = d.publish_many(updates, now=0.0, ttl=10.0)
        assert result.num_records == len(updates)
        for k in updates:
            assert result.holders[k] == d.holders_for(k)

    def test_message_count_is_distinct_holders(self, space, layer):
        updates = self._updates(space)
        d = LocationDirectory(space, layer, replication=3)
        result = d.publish_many(updates, now=0.0, ttl=10.0)
        union = {h for hs in result.holders.values() for h in hs}
        assert result.message_count == len(union)
        assert result.message_count == result.distinct_holders
        # The batch can never cost more than the per-key baseline.
        assert result.message_count <= sum(len(h) for h in result.holders.values())
        # Every holder batch names exactly the keys it stores.
        for h, batch in result.holder_batches.items():
            for k in batch:
                assert d.resolve_at(h, k, now=1.0) == updates[k]


class TestMoveMany:
    def test_group_shares_router_and_resolves(self, net):
        group = _group(net)
        report = net.move_many(group)
        assert report.batch_size == len(group)
        routers = {a.router for a in report.new_addresses.values()}
        assert len(routers) == 1
        for k in group:
            assert net.nodes[k].address == report.new_addresses[k]
            assert net.directory.resolve(k, now=net.now) == report.new_addresses[k]

    def test_batched_messages_beat_per_key_baseline(self, net):
        net.setup_random_registrations(registry_size=5)
        group = _group(net, size=8)
        # Per-key baseline cost at the same instant: each key pays its own
        # holder fan-out plus its own dissemination tree.
        baseline = sum(
            len(net.directory.holders_for(k)) + net.build_ldt_for(k).message_count
            for k in group
        )
        report = net.move_many(group)
        assert report.publish is not None
        assert report.total_messages < baseline
        # The single wave reaches the union of the registries.
        union = {
            r for k in group for r in net.nodes[k].registry if r not in set(group)
        }
        assert report.ldt is not None
        assert report.ldt.num_members == len(union)

    def test_shared_multicast_hops_accounting(self, net):
        ov = net.stationary_layer
        group = _group(net, size=6)
        holders = net.directory.holders_for_many(group)
        distinct = sorted({h for hs in holders.values() for h in hs})
        entry = ov.owner_of(group[0])
        shared = shared_multicast_hops(ov, distinct, entry=entry)
        per_holder = sum(ov.route(entry, h).hop_count for h in distinct)
        # One traversal plus near-neighbour legs never exceeds one full
        # traversal per holder.
        assert 0 < shared <= max(per_holder, len(distinct))
        assert shared == shared_multicast_hops(ov, distinct, entry=entry)
        assert shared_multicast_hops(ov, [], entry=entry) == 0
        # move_many reports exactly this traversal for its batched publish.
        assert net.move_many(group).multicast_hops == shared

    def test_rejects_stationary_and_empty(self, net):
        with pytest.raises(ValueError):
            net.move_many([net.stationary_keys[0]])
        with pytest.raises(ValueError):
            net.move_many([])

    def test_repeated_key_counts_once(self):
        """``move_many([k, k])`` on one twin and ``move_many([k])`` on the
        other leave equal reports, addresses, directories and metrics."""
        twins = []
        for _ in range(2):
            cfg = BristleConfig(seed=11, naming="scrambled")
            twin = BristleNetwork(cfg, num_stationary=30, num_mobile=20, router_count=100)
            twin.setup_random_registrations(registry_size=5)
            twins.append(twin)
        k = twins[0].mobile_keys[0]
        assert twins[0].nodes[k].registry  # so the wave is really sent
        doubled, single = twins[0].move_many([k, k]), twins[1].move_many([k])
        assert doubled == single and doubled.keys == [k]
        assert doubled.ldt is not None
        a, b = twins
        assert a.directory.snapshot() == b.directory.snapshot()
        assert {n: a.nodes[n].address for n in a.nodes} == {
            n: b.nodes[n].address for n in b.nodes
        }
        assert a.telemetry.metrics.snapshot() == b.telemetry.metrics.snapshot()

    def test_single_key_batch_matches_move_semantics(self, net):
        k = net.mobile_keys[0]
        report = net.move_many([k], advertise=False)
        assert report.keys == [k]
        assert report.publish is not None
        assert report.publish.message_count == len(net.directory.holders_for(k))


class TestAdvertiseMany:
    def test_one_wave_renews_all_cohosted_subscriptions(self, net):
        net.setup_random_registrations(registry_size=4)
        group = _group(net)
        proto = BristleProtocol(net)
        net.move_many(group, advertise=False)
        before = net.telemetry.metrics.counter("messages.advertise").value
        wave = proto.advertise_many(group)
        net.engine.run()
        assert wave.complete
        union = {
            r for k in group for r in net.nodes[k].registry if r not in set(group)
        }
        assert wave.expected == len(union)
        # One message per registrant, not one per (key, registrant) pair.
        sent = net.telemetry.metrics.counter("messages.advertise").value - before
        assert sent == len(union)
        # Every subscription of every group key got refreshed...
        for mk in group:
            node = net.nodes[mk]
            for r in node.registry:
                if r in set(group):
                    continue
                st = net.nodes[r].state.get(mk)
                assert st is not None
                assert st.addr == node.address
        # ...and nothing else was touched for unregistered pairs.
        outsider = next(
            k for k in net.mobile_keys if k not in set(group)
        )
        for mk in group:
            if outsider not in net.nodes[mk].registry:
                assert net.nodes[outsider].state.get(mk) is None


class TestLDTCache:
    def test_ldt_for_reuses_unchanged_tree(self, net):
        net.setup_random_registrations(registry_size=4)
        mk = net.mobile_keys[0]
        built = net.telemetry.metrics.counter("ldt.built")
        t1 = net.ldt_for(mk)
        after_first = built.value
        t2 = net.ldt_for(mk)
        assert t2 is t1
        assert built.value == after_first
        # A move does not invalidate: trees do not depend on addresses.
        net.move(mk, advertise=False)
        assert net.ldt_for(mk) is t1

    def test_cache_invalidated_by_registry_change(self, net):
        net.setup_random_registrations(registry_size=4)
        mk = net.mobile_keys[0]
        t1 = net.ldt_for(mk)
        newcomer = net.stationary_keys[0]
        if newcomer in net.nodes[mk].registry:
            net.registrations.unregister(newcomer, mk)
        else:
            net.registrations.register(newcomer, mk)
        t2 = net.ldt_for(mk)
        assert t2 is not t1

    def test_cache_invalidated_by_registrant_workload(self, net):
        net.setup_random_registrations(registry_size=4)
        mk = net.mobile_keys[0]
        t1 = net.ldt_for(mk)
        registrant = next(iter(net.nodes[mk].registry))
        net.nodes[registrant].consume(1.0)
        assert net.ldt_for(mk) is not t1

    def test_group_cache_and_leave_cleanup(self, net):
        net.setup_random_registrations(registry_size=4)
        group = _group(net, size=3)
        rep1, t1 = net.ldt_for_group(group)
        rep2, t2 = net.ldt_for_group(list(reversed(group)))
        assert (rep2, t2) == (rep1, t1)  # order-insensitive cache key
        net.leave_mobile_node(group[0])
        assert tuple(sorted(group)) not in net._ldt_cache


class TestEarlyBindingBatched:
    def _make(self, host_groups=None):
        cfg = BristleConfig(
            seed=13, naming="scrambled", state_ttl=30.0, refresh_period=10.0
        )
        n = BristleNetwork(cfg, num_stationary=30, num_mobile=20, router_count=100)
        return n

    def test_refresh_cost_sublinear_across_periods(self):
        """Satellite 4: an unchanged registry must not rebuild its tree
        every refresh period."""
        net = self._make()
        net.setup_random_registrations(registry_size=4)
        policy = EarlyBinding(net)
        policy.start()
        built = net.telemetry.metrics.counter("ldt.built")
        net.advance_to(10.5)  # first refresh: trees built once
        after_first = built.value
        assert after_first >= len(net.mobile_keys)
        net.advance_to(30.5)  # two more refreshes: all served from cache
        assert built.value == after_first
        hits = net.telemetry.metrics.counter("ldt.cache_hits").value
        assert hits >= 2 * len(net.mobile_keys)

    def test_grouped_refresh_accounting(self):
        net = self._make()
        group = net.mobile_keys[:6]
        net.setup_random_registrations(registry_size=4, only_keys=group)
        policy = EarlyBinding(net, host_groups=[group])
        policy.start()
        net.advance_to(10.5)  # exactly one refresh round
        union = {
            r for k in group for r in net.nodes[k].registry if r not in set(group)
        }
        # One re-registration message per distinct registrant, not per
        # subscription.
        assert policy.stats.registrations == len(union)
        result = net.directory.holders_for_many(group)
        distinct_holders = {h for hs in result.values() for h in hs}
        # Grouped keys publish once per distinct holder; ungrouped keys
        # (no registry here) still publish per-key.
        ungrouped = [k for k in net.mobile_keys if k not in set(group)]
        expected_publishes = len(distinct_holders) + sum(
            len(net.directory.holders_for(k)) for k in ungrouped
        )
        assert policy.stats.publishes == expected_publishes
        # Caches stay warm for the group too.
        built = net.telemetry.metrics.counter("ldt.built")
        after_first = built.value
        net.advance_to(20.5)
        assert built.value == after_first

    def test_group_validation(self):
        net = self._make()
        with pytest.raises(ValueError):
            EarlyBinding(net, host_groups=[[1, 2], [2, 3]])
        with pytest.raises(ValueError):
            EarlyBinding(net, host_groups=[[]])


# ----------------------------------------------------------------------
# Keys: integral or refused before the first write
# ----------------------------------------------------------------------
def _forty_twenty():
    n = BristleNetwork(BristleConfig(seed=3), num_stationary=40, num_mobile=20)
    n.setup_random_registrations()
    n.move(n.mobile_keys[1])  # one kept tree, so the LDT cache is not empty
    return n


def _written(n):
    """What a refused key must leave as it found it."""
    return (
        n.directory.snapshot(),
        {k: node.address for k, node in n.nodes.items()},
        {group: tree for group, (_, tree) in n._ldt_cache.items()},
        n.rng.stream("placement").bit_generator.state,
    )


class TestIntegralKeys:
    """A fractional key used to name the node it truncates to."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda n, k: n.move_many([k + 0.5]),
            lambda n, k: n.move_many([k, np.float64(k) + 0.9]),
            lambda n, k: n.ldt_for_group([k + 0.75]),
            lambda n, k: BristleProtocol(n).advertise_many([k + 0.25]),
            lambda n, k: n.move(float(k)),
        ],
        ids=["move_many", "move_many-np.float64", "ldt_for_group", "advertise_many", "move"],
    )
    def test_fractional_key_is_refused_with_nothing_written(self, call):
        net, twin = _forty_twenty(), _forty_twenty()
        before = _written(net)
        with pytest.raises(ValueError, match="integer"):
            call(net, net.mobile_keys[0])
        assert _written(net) == before
        assert net.directory.snapshot() == twin.directory.snapshot()

    def test_numpy_keys_equal_the_int_run(self):
        net, twin = _forty_twenty(), _forty_twenty()
        a, b = net.mobile_keys[0], net.mobile_keys[2]
        report = net.move(np.int64(a))
        twin.move(a)
        batch = net.move_many([np.int64(b), np.int64(a)])
        twin.move_many([b, a])
        assert type(report.key) is int
        assert all(type(k) is int for k in batch.keys)
        assert net.directory.snapshot() == twin.directory.snapshot()
        assert {k: n.address for k, n in net.nodes.items()} == {
            k: n.address for k, n in twin.nodes.items()
        }
        assert list(net._ldt_cache) == list(twin._ldt_cache)
