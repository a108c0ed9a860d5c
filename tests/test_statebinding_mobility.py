"""Tests for repro.core.statebinding and repro.core.mobility."""

import pytest

from repro.core import (
    BristleConfig,
    BristleNetwork,
    EarlyBinding,
    LateBinding,
    MobilityProcess,
    shuffle_all_mobile,
)


@pytest.fixture
def net():
    cfg = BristleConfig(seed=9, naming="scrambled", state_ttl=30.0, refresh_period=10.0)
    n = BristleNetwork(cfg, num_stationary=30, num_mobile=20, router_count=100)
    n.setup_random_registrations(registry_size=4)
    return n


@pytest.fixture
def engine(net):
    return net.engine


class TestEarlyBinding:
    def test_refresh_keeps_caches_warm(self, net, engine):
        policy = EarlyBinding(net)
        policy.start()
        engine.run(until=25.0)
        mk = net.mobile_keys[0]
        registrant = net.nodes[mk].registry_entries()[0].key
        assert policy.lookup(registrant, mk)
        assert policy.stats.advertisements > 0
        assert policy.stats.registrations > 0
        assert policy.stats.discoveries == 0

    def test_no_refresh_before_first_period(self, net, engine):
        policy = EarlyBinding(net)
        policy.start()
        engine.run(until=5.0)  # refresh period is 10
        mk = net.mobile_keys[0]
        registrant = net.nodes[mk].registry_entries()[0].key
        assert not policy.lookup(registrant, mk)

    def test_stop_halts_refreshes(self, net, engine):
        policy = EarlyBinding(net)
        policy.start()
        engine.run(until=10.5)
        count = policy.stats.advertisements
        policy.stop()
        engine.run(until=50.0)
        assert policy.stats.advertisements == count

    def test_advertisements_follow_ldt_size(self, net, engine):
        policy = EarlyBinding(net)
        policy.start()
        engine.run(until=10.5)  # exactly one refresh round
        expected = sum(
            len(net.nodes[mk].registry) for mk in net.mobile_keys
        )
        assert policy.stats.advertisements == expected


class TestLateBinding:
    def test_miss_triggers_discovery_and_caches(self, net):
        policy = LateBinding(net)
        policy.start()
        mk = net.mobile_keys[0]
        registrant = net.nodes[mk].registry_entries()[0].key
        # First lookup: cold cache → discovery.
        assert policy.lookup(registrant, mk) is False
        assert policy.stats.discoveries == 1
        # Second lookup within the TTL: warm.
        assert policy.lookup(registrant, mk) is True
        assert policy.stats.discoveries == 1

    def test_cache_expires_and_rediscovers(self, net):
        policy = LateBinding(net)
        mk = net.mobile_keys[0]
        registrant = net.nodes[mk].registry_entries()[0].key
        policy.lookup(registrant, mk)
        # Advance past the TTL; the mobile node republished at move time
        # so the directory stays fresh but the local cache lapses.
        net.move(mk)
        net.advance_to(net.config.state_ttl + 1)  # past the cached lease
        net.directory.publish(mk, net.nodes[mk].address, now=net.now, ttl=net.config.state_ttl)
        assert policy.lookup(registrant, mk) is False
        assert policy.stats.discoveries == 2

    def test_no_periodic_work(self, net, engine):
        policy = LateBinding(net)
        policy.start()
        assert engine.pending == 0


class TestMobilityProcess:
    def test_moves_happen_at_rate(self, net, engine):
        proc = MobilityProcess(net=net, rate=0.5, advertise=False)
        proc.start()
        engine.run(until=20.0)
        # 20 mobile nodes × rate 0.5 × 20 time units ≈ 200 expected moves;
        # just assert a healthy number happened and addresses changed.
        assert proc.moves_performed > 50
        assert net.placement.move_count == proc.moves_performed

    def test_observer_called(self, net, engine):
        seen = []
        proc = MobilityProcess(
            net=net, rate=1.0, on_move=seen.append, advertise=False
        )
        proc.start()
        engine.run(until=3.0)
        assert len(seen) == proc.moves_performed
        assert all(r.new_address is not None for r in seen)

    def test_stop(self, net, engine):
        proc = MobilityProcess(net=net, rate=1.0, advertise=False)
        proc.start()
        engine.run(until=2.0)
        count = proc.moves_performed
        proc.stop()
        engine.run(until=10.0)
        assert proc.moves_performed == count

    def test_invalid_rate(self, net):
        proc = MobilityProcess(net=net, rate=0.0)
        with pytest.raises(ValueError):
            proc.start()

    def test_directory_stays_fresh_under_mobility(self, net, engine):
        proc = MobilityProcess(net=net, rate=0.3, advertise=False)
        proc.start()
        engine.run(until=10.0)
        for mk in net.mobile_keys:
            assert net.directory.resolve(mk, now=net.now) == net.nodes[mk].address


class TestShuffle:
    def test_every_mobile_moves_once(self, net):
        reports = shuffle_all_mobile(net)
        assert len(reports) == len(net.mobile_keys)
        assert all(net.nodes[mk].moves == 1 for mk in net.mobile_keys)

    def test_publish_flag(self, net):
        shuffle_all_mobile(net, publish=False)
        stale = [
            mk
            for mk in net.mobile_keys
            if net.directory.resolve(mk, now=0.0) != net.nodes[mk].address
        ]
        assert len(stale) > 0
