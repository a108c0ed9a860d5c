"""Tests for repro.core.protocol — timed advertisement and discovery."""

import pytest

from repro.core import (
    BristleConfig,
    BristleNetwork,
    BristleProtocol,
)
from repro.sim import Engine, Tracer


@pytest.fixture
def net():
    cfg = BristleConfig(seed=17, naming="scrambled")
    n = BristleNetwork(cfg, num_stationary=40, num_mobile=25, router_count=100)
    n.setup_random_registrations(registry_size=6)
    return n


@pytest.fixture
def proto(net, engine):
    return BristleProtocol(net, engine, tracer=Tracer())


class TestAdvertisementWave:
    def test_reaches_every_registrant(self, net, engine, proto):
        mk = net.mobile_keys[0]
        wave = proto.advertise(mk)
        engine.run()
        assert wave.complete
        assert set(wave.arrival_times) == set(net.nodes[mk].registry)

    def test_arrival_times_monotone_with_depth(self, net, engine, proto):
        mk = net.mobile_keys[0]
        tree = net.build_ldt_for(mk)
        wave = proto.advertise(mk, tree=tree)
        engine.run()
        for key, node in tree.nodes.items():
            if node.level == 0:
                continue
            parent = node.parent
            if parent != mk:
                assert wave.arrival_times[key] >= wave.arrival_times[parent]

    def test_makespan_positive_and_bounded(self, net, engine, proto):
        mk = net.mobile_keys[1]
        wave = proto.advertise(mk)
        engine.run()
        assert wave.makespan > 0.0
        # Bounded by depth × max pairwise latency.
        tree = net.build_ldt_for(mk)
        max_lat = max(
            proto.latency(a, b) for a in net.nodes for b in list(net.nodes)[:5] if a != b
        )
        assert wave.makespan <= tree.depth * max_lat * 10

    def test_updates_registrant_caches(self, net, engine, proto):
        mk = net.mobile_keys[0]
        net.move(mk, advertise=False)
        proto.advertise(mk)
        engine.run()
        for entry in net.nodes[mk].registry_entries():
            pair = net.nodes[entry.key].state.get(mk)
            assert pair is not None
            assert pair.addr == net.nodes[mk].address

    def test_on_complete_callback(self, net, engine, proto):
        done = []
        proto.advertise(net.mobile_keys[0], on_complete=done.append)
        engine.run()
        assert len(done) == 1
        assert done[0].complete

    def test_empty_registry_completes_immediately(self, net, engine, proto):
        lonely = net.mobile_keys[0]
        net.nodes[lonely].registry.clear()
        done = []
        wave = proto.advertise(lonely, on_complete=done.append)
        assert wave.complete
        assert done and done[0].makespan == 0.0

    def test_message_count_equals_tree_edges(self, net, engine, proto):
        mk = net.mobile_keys[2]
        tree = net.build_ldt_for(mk)
        proto.advertise(mk, tree=tree)
        engine.run()
        assert proto.metrics.counter("messages.advertise").value == tree.message_count

    def test_wave_outlives_its_root_and_a_registrant(self, net, engine, proto):
        """Copies in flight still arrive.  One addressed to a registrant
        that left renews nothing; once the advertising node itself is gone
        (``KeyError`` in ``arrive`` while the per-key wave was its own copy
        of the group wave) the later arrivals renew nothing either."""
        mk, tree, gone = next(
            (k, t, r)
            for k in net.mobile_keys
            for t in [net.build_ldt_for(k)]
            for r in t.children_of(k)
            if net.is_mobile(r) and not t.children_of(r)
        )
        done = []
        wave = proto.advertise(mk, tree=tree, on_complete=done.append)
        net.leave_mobile_node(gone)
        engine.step()  # the first copy lands while mk is still a member
        net.leave_mobile_node(mk)
        engine.run()
        assert done == [wave] and wave.complete
        assert set(wave.arrival_times) == set(tree.keys) - {mk}
        first = min(wave.arrival_times, key=wave.arrival_times.get)
        assert {k for k, n in net.nodes.items() if mk in n.state} == {first} - {gone}

    @pytest.mark.parametrize("level", [1, 2], ids=["copy in flight", "never sent"])
    def test_wave_through_a_departed_registrant(self, engine, level):
        """Regression: a departed interior registrant made ``send`` raise
        ``KeyError`` (``latency`` -> ``router_of``).  A node that has left
        neither sends nor is sent to; the partitions it leaves unreached
        drop out of ``expected``, so the wave still completes once, when
        every reachable registrant holds the update."""
        net = BristleNetwork(
            BristleConfig(seed=5, naming="scrambled"), 60, 30, max_capacity=2
        )
        net.setup_random_registrations()
        proto = BristleProtocol(net, engine)
        mk, tree, gone = next(
            (k, t, r)
            for k in net.mobile_keys
            for t in [net.build_ldt_for(k)]
            for r in t.keys[1:]
            if net.is_mobile(r) and t.children_of(r) and t.nodes[r].level == level
        )
        done = []
        wave = proto.advertise(mk, tree=tree, on_complete=done.append)
        net.leave_mobile_node(gone)
        engine.run()
        # The root's copies were sent before ``gone`` left, so a copy to it
        # is in flight; below that, every copy goes through a live sender.
        reached, frontier = set(), [(c, True) for c in tree.children_of(mk)]
        while frontier:
            node, sent = frontier.pop()
            if sent:
                reached.add(node)
                frontier += [(c, node != gone and c != gone) for c in tree.children_of(node)]
        assert done == [wave] and wave.complete
        assert set(wave.arrival_times) == reached
        assert wave.expected == len(reached) < tree.num_members
        assert proto.metrics.counter("messages.advertise").value == len(reached)
        address = net.nodes[mk].address
        for key in reached - {gone}:
            if key in net.nodes[mk].registry:
                assert net.nodes[key].state.get(mk).addr == address

    def test_wave_whose_every_head_left_completes_at_once(self, net, engine, proto):
        mk, tree = next(
            (k, t)
            for k in net.mobile_keys
            for t in [net.build_ldt_for(k)]
            if t.children_of(k) and all(net.is_mobile(h) for h in t.children_of(k))
        )
        for head in tree.children_of(mk):
            net.leave_mobile_node(head)
        done = []
        wave = proto.advertise(mk, tree=tree, on_complete=done.append)
        assert done == [wave] and wave.expected == 0 and wave.makespan == 0.0
        engine.run()
        assert done == [wave] and not wave.arrival_times
        assert proto.metrics.counter("messages.advertise").value == 0

    def test_flat_tree_faster_than_chain(self, engine):
        """Timed counterpart of Fig 8: a capacity-rich registry floods in
        ~1 level; homogeneous capacity-1 nodes relay sequentially."""
        import numpy as np

        def makespan(max_capacity: int, seed: int = 31) -> float:
            cfg = BristleConfig(seed=seed, naming="scrambled")
            n = BristleNetwork(
                cfg, num_stationary=30, num_mobile=10, router_count=100,
                max_capacity=max_capacity,
            )
            n.setup_random_registrations(registry_size=10)
            eng = Engine()
            p = BristleProtocol(n, eng)
            spans = []
            for mk in n.mobile_keys:
                wave = p.advertise(mk)
                eng.run()
                spans.append(wave.makespan)
            return float(np.mean(spans))

        assert makespan(1) > makespan(15) * 1.5


class TestDiscoveryExchange:
    def test_resolves_current_address(self, net, engine, proto):
        mk = net.mobile_keys[0]
        net.move(mk)
        ex = proto.discover(net.stationary_keys[0], mk)
        engine.run()
        assert ex.complete
        assert ex.address == net.nodes[mk].address
        assert ex.rtt > 0.0

    def test_rtt_in_flight_raises(self, net, engine, proto):
        ex = proto.discover(net.stationary_keys[0], net.mobile_keys[0])
        with pytest.raises(RuntimeError):
            _ = ex.rtt

    def test_mobile_requester_enters_via_stationary(self, net, engine, proto):
        src = net.mobile_keys[3]
        ex = proto.discover(src, net.mobile_keys[4])
        engine.run()
        assert ex.complete
        assert ex.query_hops >= 1

    def test_callback(self, net, engine, proto):
        done = []
        proto.discover(
            net.stationary_keys[0], net.mobile_keys[0], on_complete=done.append
        )
        engine.run()
        assert len(done) == 1

    def test_metrics_recorded(self, net, engine, proto):
        proto.discover(net.stationary_keys[0], net.mobile_keys[0])
        engine.run()
        assert len(proto.metrics.histogram("discover.rtt")) == 1

    def test_tracer_records_messages(self, net, engine, proto):
        proto.discover(net.stationary_keys[0], net.mobile_keys[0])
        engine.run()
        assert proto.tracer.count("discovered") == 1


class TestProtocolConfig:
    def test_latency_scale_validated(self, net, engine):
        with pytest.raises(ValueError):
            BristleProtocol(net, engine, latency_scale=0.0)

    def test_latency_scales_linearly(self, net, engine):
        p1 = BristleProtocol(net, engine, latency_scale=1.0)
        p2 = BristleProtocol(net, engine, latency_scale=2.0)
        a, b = net.stationary_keys[0], net.stationary_keys[1]
        assert p2.latency(a, b) == pytest.approx(2 * p1.latency(a, b))
