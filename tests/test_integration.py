"""Integration tests: full Bristle scenarios across all subsystems.

These exercise the complete stack — underlay, both overlays, location
management, LDTs, routing and the simulation engine — in end-to-end
stories that mirror the paper's motivating use cases.
"""

import numpy as np

from repro.core import (
    BristleConfig,
    BristleNetwork,
    EarlyBinding,
    MobilityProcess,
    route_with_resolution,
    shuffle_all_mobile,
)
from repro.sim import Engine
from repro.workloads import poisson_churn, sample_key_lookups


class TestEndToEndSemantics:
    """The paper's headline property: a node's key survives movement."""

    def test_lookups_survive_repeated_moves(self):
        cfg = BristleConfig(seed=21, naming="clustered")
        net = BristleNetwork(cfg, num_stationary=50, num_mobile=30, router_count=100)
        mk = net.mobile_keys[0]
        src = net.stationary_keys[0]
        for round_ in range(5):
            net.move(mk)
            trace = route_with_resolution(net, src, mk)
            assert trace.success
            assert trace.node_path[-1] == mk
            # The discovery resolved the *current* address.
            d = net.discover(src, mk)
            assert d.address == net.nodes[mk].address

    def test_data_keys_remain_owned_across_mobility(self):
        cfg = BristleConfig(seed=22, naming="scrambled")
        net = BristleNetwork(cfg, num_stationary=40, num_mobile=40, router_count=100)
        data_keys = [7, 99999, 2**30, 2**31 + 12345]
        owners_before = {k: net.mobile_layer.owner_of(k) for k in data_keys}
        shuffle_all_mobile(net)
        owners_after = {k: net.mobile_layer.owner_of(k) for k in data_keys}
        # Movement never changes key ownership (unlike Type A).
        assert owners_before == owners_after


class TestChurnScenario:
    def test_mixed_churn_keeps_network_consistent(self):
        cfg = BristleConfig(seed=23, naming="scrambled")
        net = BristleNetwork(cfg, num_stationary=40, num_mobile=20, router_count=100)
        rng = net.rng
        sched = poisson_churn(
            net.mobile_keys,
            duration=10.0,
            rng=rng,
            move_rate=0.2,
            leave_rate=0.05,
            join_hosts=[1, 2, 3, 4, 5],
        )
        from repro.workloads import ChurnEventType

        for event in sched:
            net.now = event.time
            if event.kind is ChurnEventType.MOVE and net.is_mobile(event.host):
                net.move(event.host, advertise=False)
            elif event.kind is ChurnEventType.LEAVE and net.is_mobile(event.host):
                net.leave_mobile_node(event.host)
            elif event.kind is ChurnEventType.JOIN and event.host not in net.nodes:
                net.join_mobile_node(event.host)
        # Invariants after churn:
        assert net.mobile_layer.num_nodes == net.num_stationary + net.num_mobile
        for mk in net.mobile_keys:
            assert net.placement.is_attached(mk)
            assert net.directory.resolve(mk, now=net.now) == net.nodes[mk].address
        # Routing still works everywhere.
        for t in net.mobile_keys[:5] + net.stationary_keys[:5]:
            assert route_with_resolution(net, net.stationary_keys[0], t).success


class TestLiveSimulation:
    def test_mobility_with_early_binding_keeps_lookups_warm(self):
        cfg = BristleConfig(
            seed=24, naming="scrambled", state_ttl=30.0, refresh_period=8.0
        )
        net = BristleNetwork(cfg, num_stationary=30, num_mobile=15, router_count=100)
        net.setup_random_registrations(registry_size=4)
        engine = Engine()
        binding = EarlyBinding(net, engine)
        binding.start()
        mobility = MobilityProcess(net=net, engine=engine, rate=0.05, advertise=True)
        mobility.start()
        engine.run(until=40.0)
        net.now = engine.now
        # After several refresh rounds every registrant's cache is warm.
        warm = 0
        total = 0
        for mk in net.mobile_keys:
            for entry in net.nodes[mk].registry_entries():
                total += 1
                if binding.lookup(entry.key, mk):
                    warm += 1
        assert total > 0
        assert warm / total > 0.95
        assert mobility.moves_performed > 0

    def test_ldt_advertisements_reach_whole_registry(self):
        cfg = BristleConfig(seed=25, naming="scrambled")
        net = BristleNetwork(cfg, num_stationary=30, num_mobile=15, router_count=100)
        net.setup_random_registrations(registry_size=7)
        for mk in net.mobile_keys:
            report = net.move(mk, advertise=True)
            assert report.ldt is not None
            assert report.ldt.num_members == 7
            report.ldt.validate()


class TestDataLookupWorkload:
    def test_lookup_workload_all_terminate(self):
        cfg = BristleConfig(seed=26, naming="clustered", p_stale=1.0)
        net = BristleNetwork(cfg, num_stationary=60, num_mobile=60, router_count=150)
        shuffle_all_mobile(net)
        members = net.stationary_keys + net.mobile_keys
        lookups = sample_key_lookups(members, net.space.size, 100, net.rng)
        hops = []
        for src, key in lookups:
            trace = route_with_resolution(net, src, key)
            assert trace.success
            hops.append(trace.app_hops)
        # Sanity: hop counts in the O(log N) regime, not O(N).
        assert np.mean(hops) < 25


class TestChurnDriver:
    def test_full_stack_churn_with_storage(self):
        """Joins (Fig 5), leaves, moves and data handoff interleaved on
        the engine: every invariant holds and no data is lost."""
        from repro.core.storage import DataStore
        from repro.sim import Engine
        from repro.workloads import poisson_churn

        from .churn_driver import ChurnDriver

        cfg = BristleConfig(seed=77, naming="scrambled")
        net = BristleNetwork(cfg, num_stationary=40, num_mobile=25, router_count=100)
        store = DataStore(net, replication=3)
        data_keys = [
            int(k) for k in net.space.random_keys(net.rng, "docs", 80, unique=False)
        ]
        for k in data_keys:
            store.put(k, f"v{k}")

        joiners = []
        cand = 3
        for _ in range(6):
            while cand in net.nodes:
                cand += 1
            joiners.append(cand)
            cand += 1
        schedule = poisson_churn(
            net.mobile_keys,
            duration=20.0,
            rng=net.rng.spawn("driver"),
            move_rate=0.05,
            leave_rate=0.02,
            join_hosts=joiners,
        )
        engine = Engine()
        driver = ChurnDriver(
            net=net, engine=engine, schedule=schedule, store=store
        )
        driver.start()
        engine.run()

        assert driver.total_applied + driver.skipped == len(schedule)
        # Membership bookkeeping is consistent.
        assert net.mobile_layer.num_nodes == net.num_stationary + net.num_mobile
        for mk in net.mobile_keys:
            assert net.placement.is_attached(mk)
        # Joins were message-accounted.
        if driver.applied and driver.applied[type(schedule.events[0].kind)(
            "join"
        )] > 0:
            assert driver.join_messages > 0
        # All data still retrievable end-to-end.
        src = net.stationary_keys[0]
        for k in data_keys:
            result = store.get(src, k)
            assert result.found, f"item {k} lost under churn"
        # Routing still works to everyone.
        for t in net.mobile_keys[:5]:
            assert route_with_resolution(net, src, t).success


class TestResilientSwarm:
    def test_failures_detected_and_survived_end_to_end(self):
        """Capstone integration: a live swarm with mobility, early
        binding, replicated storage and heartbeat failure detection.
        Nodes fail mid-run; the detector sheds them, replicas keep the
        data served, and routing detours around the dead."""
        from repro.core import LiveSimulation
        from repro.core.failure import FailureDetector
        from repro.core.storage import DataStore

        sim = LiveSimulation.create(
            num_stationary=40,
            num_mobile=30,
            seed=88,
            router_count=100,
            registry_size=5,
            move_rate=0.02,
            binding="early",
        )
        net = sim.net
        store = DataStore(net, replication=3)
        docs = [int(k) for k in net.space.random_keys(net.rng, "docs", 50, unique=False)]
        for k in docs:
            store.put(k, f"v{k}")

        detector = FailureDetector(
            net,
            sim.engine,
            period=5.0,
            miss_threshold=2,
            on_suspect=lambda s: store.drop_failed_node(s.suspect),
        )
        detector.start()
        sim.run(until=20.0)

        victims = net.mobile_keys[:3]
        for v in victims:
            detector.fail(v)
        sim.run(until=60.0)

        # Every victim was detected by all its monitors.
        for v in victims:
            assert detector.detection_coverage(v) == 1.0
        # Data on failed holders still served from replicas.
        src = net.stationary_keys[0]
        served = sum(1 for k in docs if store.get(src, k).found)
        assert served / len(docs) > 0.95
        # Live routing detours around the failed set.
        failed = set(victims)
        live_targets = [k for k in net.mobile_keys if k not in failed][:5]
        for t in live_targets:
            r = net.mobile_layer.route_avoiding(src, t, avoid=failed)
            assert r.success
