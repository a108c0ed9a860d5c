"""Tests for repro.core.failure — heartbeat monitoring (§2.3.2)."""


import pytest

from repro.core import BristleConfig, BristleNetwork
from repro.core.failure import FailureDetector
from repro.core.storage import DataStore


@pytest.fixture
def net():
    cfg = BristleConfig(seed=61, naming="scrambled")
    return BristleNetwork(cfg, num_stationary=30, num_mobile=20, router_count=100)


@pytest.fixture
def engine(net):
    return net.engine


@pytest.fixture
def detector(net):
    return FailureDetector(net, period=5.0, miss_threshold=2)


class TestConfig:
    def test_invalid_period(self, net):
        with pytest.raises(ValueError):
            FailureDetector(net, period=0.0)

    def test_invalid_threshold(self, net):
        with pytest.raises(ValueError):
            FailureDetector(net, miss_threshold=0)

    def test_double_start_rejected(self, detector):
        detector.start()
        with pytest.raises(RuntimeError):
            detector.start()

    def test_fail_unknown_node(self, detector):
        with pytest.raises(KeyError):
            detector.fail(31337 if 31337 not in detector.net.nodes else 31338)


class TestDetection:
    def test_no_false_positives(self, net, engine, detector):
        detector.start()
        engine.run(until=50.0)
        assert detector.suspicions == []

    def test_failure_detected_within_bound(self, net, engine, detector):
        victim = net.mobile_keys[0]
        detector.start()
        engine.run(until=7.0)  # one round passed
        detector.fail(victim)
        failed_at = engine.now
        engine.run(until=failed_at + 3 * detector.period)
        assert detector.detected_by_anyone(victim)
        first = min(s.at for s in detector.suspicions if s.suspect == victim)
        assert first - failed_at <= detector.miss_threshold * detector.period + detector.period

    def test_detection_delay_recorded(self, net, engine, detector):
        victim = net.mobile_keys[1]
        detector.fail(victim)
        detector.start()
        engine.run(until=30.0)
        hist = detector.metrics.histogram("detection_delay")
        assert len(hist) > 0
        assert hist.min() >= 0.0

    def test_all_monitors_eventually_suspect(self, net, engine, detector):
        victim = net.mobile_keys[2]
        detector.fail(victim)
        detector.start()
        engine.run(until=40.0)
        assert detector.detection_coverage(victim) == 1.0

    def test_threshold_delays_suspicion(self, net, engine):
        victim = net.mobile_keys[0]
        strict = FailureDetector(net, period=5.0, miss_threshold=4)
        strict.fail(victim)
        strict.start()
        engine.run(until=16.0)  # 3 rounds < threshold 4
        assert not strict.detected_by_anyone(victim)
        engine.run(until=21.0)  # 4th round
        assert strict.detected_by_anyone(victim)

    def test_recovery_clears_suspicion(self, net, engine, detector):
        victim = net.mobile_keys[0]
        detector.fail(victim)
        detector.start()
        engine.run(until=15.0)
        assert detector.detected_by_anyone(victim)
        detector.recover(victim)
        assert not detector.detected_by_anyone(victim)
        engine.run(until=40.0)
        assert not detector.detected_by_anyone(victim)

    def test_failed_monitor_sends_no_heartbeats(self, net, engine, detector):
        a, b = net.mobile_keys[0], net.mobile_keys[1]
        detector.fail(a)
        detector.fail(b)
        detector.start()
        engine.run(until=30.0)
        # a never *reports* suspicions (it is failed itself).
        assert all(s.monitor != a for s in detector.suspicions)

    def test_stop_halts_rounds(self, net, engine, detector):
        detector.start()
        engine.run(until=6.0)
        count = detector.metrics.counter("heartbeats").value
        detector.stop()
        engine.run(until=60.0)
        assert detector.metrics.counter("heartbeats").value == count

    def test_heartbeat_budget_matches_state_sizes(self, net, engine, detector):
        detector.start()
        engine.run(until=5.5)  # exactly one round
        expected = sum(
            len(net.mobile_layer.neighbors_of(int(k)))
            for k in net.mobile_layer.keys
        )
        assert detector.metrics.counter("heartbeats").value == expected

    def test_on_suspect_callback(self, net, engine):
        seen = []
        det = FailureDetector(
            net, period=5.0, miss_threshold=1, on_suspect=seen.append
        )
        victim = net.mobile_keys[3]
        det.fail(victim)
        det.start()
        engine.run(until=6.0)
        assert seen
        assert all(s.suspect == victim for s in seen)


class TestStorageIntegration:
    def test_detector_driven_failover(self, net, engine):
        """End-to-end §2.3.2 story: a holder fails, the detector notices,
        the store sheds it, replicas keep the item available."""
        store = DataStore(net, replication=3)
        store.put(4242, "survives")
        primary = store.holders_for(4242)[0]

        det = FailureDetector(
            net,
            period=5.0,
            miss_threshold=2,
            on_suspect=lambda s: store.drop_failed_node(s.suspect),
        )
        det.fail(primary)
        det.start()
        engine.run(until=20.0)
        result = store.get(net.stationary_keys[0], 4242)
        assert result.found
        assert result.holder != primary
