"""Tests for repro.sim.metrics."""

import math

import numpy as np
import pytest

from repro.sim import Counter, Histogram, MetricsRegistry, TimeSeries, summarize


class TestCounter:
    def test_inc_default(self):
        c = Counter("x")
        c.inc()
        c.inc(5)
        assert c.value == 6

    def test_negative_inc(self):
        c = Counter("x")
        c.inc(-2)
        assert c.value == -2

    def test_reset(self):
        c = Counter("x")
        c.inc(3)
        c.reset()
        assert c.value == 0


class TestHistogram:
    def test_empty_statistics_are_nan(self):
        h = Histogram("h")
        assert math.isnan(h.mean())
        assert math.isnan(h.std())
        assert math.isnan(h.percentile(50))
        assert math.isnan(h.min())
        assert math.isnan(h.max())
        assert h.total() == 0.0

    def test_basic_stats(self):
        h = Histogram("h")
        h.observe_many([1, 2, 3, 4])
        assert h.mean() == 2.5
        assert h.min() == 1
        assert h.max() == 4
        assert h.total() == 10
        assert len(h) == 4

    def test_percentile(self):
        h = Histogram("h")
        h.observe_many(range(101))
        assert h.percentile(50) == 50
        assert h.percentile(95) == 95

    def test_samples_returns_copy(self):
        h = Histogram("h")
        h.observe(1.0)
        arr = h.samples
        arr[0] = 99
        assert h.samples[0] == 1.0

    def test_reset(self):
        h = Histogram("h")
        h.observe(1.0)
        h.reset()
        assert len(h) == 0


class TestTimeSeries:
    def test_record_and_arrays(self):
        s = TimeSeries("s")
        s.record(0.0, 1.0)
        s.record(1.0, 2.0)
        t, v = s.arrays()
        assert np.array_equal(t, [0.0, 1.0])
        assert np.array_equal(v, [1.0, 2.0])

    def test_time_regression_rejected(self):
        s = TimeSeries("s")
        s.record(5.0, 1.0)
        with pytest.raises(ValueError):
            s.record(4.0, 1.0)

    def test_equal_times_allowed(self):
        s = TimeSeries("s")
        s.record(5.0, 1.0)
        s.record(5.0, 2.0)
        assert len(s) == 2

    def test_last(self):
        s = TimeSeries("s")
        with pytest.raises(IndexError):
            s.last()
        s.record(1.0, 10.0)
        assert s.last() == (1.0, 10.0)


class TestRegistry:
    def test_get_or_create_identity(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.histogram("b") is reg.histogram("b")
        assert reg.series("c") is reg.series("c")

    def test_snapshot(self):
        reg = MetricsRegistry()
        reg.counter("msgs").inc(3)
        reg.histogram("hops").observe_many([2, 4])
        snap = reg.snapshot()
        assert snap["msgs"] == 3.0
        assert snap["hops.mean"] == 3.0
        assert snap["hops.count"] == 2.0

    def test_snapshot_series_last_and_count(self):
        reg = MetricsRegistry()
        s = reg.series("load")
        s.record(0.0, 5.0)
        s.record(2.0, 9.0)
        snap = reg.snapshot()
        assert snap["load.last"] == 9.0
        assert snap["load.count"] == 2.0

    def test_snapshot_empty_series_last_is_nan(self):
        reg = MetricsRegistry()
        reg.series("idle")
        snap = reg.snapshot()
        assert math.isnan(snap["idle.last"])
        assert snap["idle.count"] == 0.0

    def test_series_map_property(self):
        reg = MetricsRegistry()
        s = reg.series("a")
        assert reg.series_map["a"] is s
        assert set(reg.series_map) == {"a"}

    def test_reset_keeps_names(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        reg.histogram("h").observe(1)
        reg.reset()
        assert reg.counter("a").value == 0
        assert len(reg.histogram("h")) == 0

    def test_handles_held_across_reset_keep_recording(self):
        # A series held across reset() used to record into an orphan the
        # snapshot never showed; counters and histograms always survived.
        reg = MetricsRegistry()
        c, h, s = reg.counter("c"), reg.histogram("h"), reg.series("s")
        c.inc(3)
        h.observe(1.0)
        s.record(1.0, 5.0)
        reg.reset()
        c.inc()
        h.observe(2.0)
        s.record(0.5, 7.0)
        assert reg.series("s") is s
        snap = reg.snapshot()
        assert (snap["c"], snap["h.count"], snap["h.mean"]) == (1.0, 1.0, 2.0)
        assert (snap["s.count"], snap["s.last"]) == (1.0, 7.0)


class TestSummarize:
    def test_empty(self):
        s = summarize([])
        assert s.count == 0
        assert math.isnan(s.mean)

    def test_values(self):
        s = summarize([1.0, 2.0, 3.0])
        assert s.count == 3
        assert s.mean == 2.0
        assert s.min == 1.0
        assert s.max == 3.0
        assert s.p50 == 2.0


class TestCounterSet:
    def test_set_overwrites(self):
        c = Counter("x")
        c.inc(3)
        c.set(10)
        assert c.value == 10

    def test_set_then_inc(self):
        c = Counter("x")
        c.set(5)
        c.inc()
        assert c.value == 6


class TestRecordCacheStats:
    def test_counters_mirrored(self):
        from repro.sim import record_cache_stats

        reg = MetricsRegistry()
        record_cache_stats(
            reg,
            {"hits": 9.0, "misses": 1.0, "evictions": 0.0, "hit_rate": 0.9},
        )
        assert reg.counter("oracle.hits").value == 9
        assert reg.counter("oracle.misses").value == 1
        assert reg.counter("oracle.evictions").value == 0

    def test_rate_recorded_as_histogram(self):
        from repro.sim import record_cache_stats

        reg = MetricsRegistry()
        record_cache_stats(reg, {"hit_rate": 0.75}, prefix="o")
        assert reg.histogram("o.hit_rate").mean() == pytest.approx(0.75)
        assert "o.hit_rate.mean" in reg.snapshot()

    def test_nan_rate_skipped(self):
        from repro.sim import record_cache_stats

        reg = MetricsRegistry()
        record_cache_stats(reg, {"hit_rate": float("nan"), "hits": 0})
        assert len(reg.histogram("oracle.hit_rate")) == 0

    def test_infinite_stats_skipped(self):
        from repro.sim import record_cache_stats

        reg = MetricsRegistry()
        record_cache_stats(reg, {"hits": math.inf, "hit_rate": -math.inf, "misses": 2})
        assert reg.snapshot() == {"oracle.misses": 2.0}

    def test_repeated_snapshots_overwrite_counters(self):
        from repro.sim import record_cache_stats

        reg = MetricsRegistry()
        record_cache_stats(reg, {"hits": 5})
        record_cache_stats(reg, {"hits": 12})
        assert reg.counter("oracle.hits").value == 12

    def test_ratio_edge_values_stay_histograms(self):
        # 0.0 and 1.0 are integer-valued floats; the suffix allowlist must
        # still classify them as ratios, not counters.
        from repro.sim import record_cache_stats

        reg = MetricsRegistry()
        record_cache_stats(reg, {"hit_rate": 0.0})
        record_cache_stats(reg, {"hit_rate": 1.0})
        assert "oracle.hit_rate" not in reg.counters
        assert list(reg.histogram("oracle.hit_rate").samples) == [0.0, 1.0]

    def test_explicit_ratios_override_suffix_heuristic(self):
        from repro.sim import record_cache_stats

        reg = MetricsRegistry()
        record_cache_stats(reg, {"coverage": 1.0, "hits": 4.0}, ratios=("coverage",))
        assert "oracle.coverage" not in reg.counters
        assert reg.histogram("oracle.coverage").mean() == pytest.approx(1.0)
        assert reg.counter("oracle.hits").value == 4

    def test_ratio_suffixes_constant(self):
        from repro.sim.metrics import RATIO_SUFFIXES

        assert "rate" in RATIO_SUFFIXES
        assert "ratio" in RATIO_SUFFIXES
        assert "fraction" in RATIO_SUFFIXES

    def test_integrates_with_path_oracle(self):
        from repro.net import PathOracle, TransitStubParams, generate_transit_stub
        from repro.sim import RngStreams, record_cache_stats

        topo = generate_transit_stub(TransitStubParams(), RngStreams(5))
        oracle = PathOracle(topo.graph)
        oracle.distance(0, 9)
        oracle.distance(0, 11)
        reg = MetricsRegistry()
        record_cache_stats(reg, oracle.cache_stats())
        snap = reg.snapshot()
        assert snap["oracle.dijkstra_runs"] == 1
        assert snap["oracle.hits"] == 1
