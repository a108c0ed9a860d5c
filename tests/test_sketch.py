"""Tests for the streaming quantile sketch (:mod:`repro.sim.metrics`).

Covers the acceptance bar for the observability tentpole: relative error
against the exact NumPy oracle at the gated quantiles across three input
shapes, exact (state-equal) merges under every split order — including a
merge driven through ``sweep_map`` workers, the path ``--jobs 2`` actually
exercises — the O(1)-memory bucket bound, and the histogram's sketch
folded from its sample list on read.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.experiments.parallel import SweepConfig, sweep_map, sweep_session
from repro.sim.metrics import (
    TAIL_QUANTILES,
    Histogram,
    MetricsRegistry,
    QuantileSketch,
)
from tests.oracles.telemetry import EagerSketch

GATED = (50.0, 99.0, 99.9)


def _draw(name: str, n: int, seed: int) -> np.ndarray:
    gen = np.random.default_rng(seed)
    if name == "uniform":
        return gen.uniform(0.5, 1000.0, n)
    if name == "zipf":
        ranks = np.arange(1, 5_001, dtype=np.float64)
        cdf = np.cumsum(ranks**-1.2)
        cdf /= cdf[-1]
        return ranks[np.searchsorted(cdf, gen.random(n), side="right")]
    # Bimodal with a 45/55 split so the gated quantiles land inside a
    # mode (at the inter-mode gap no rank-based estimator can match
    # NumPy's interpolated percentile).
    n_fast = int(n * 0.45)
    fast = gen.normal(1.0, 0.05, n_fast)
    slow = gen.normal(50.0, 5.0, n - n_fast)
    return np.abs(np.concatenate([fast, slow])) + 1e-6


class TestAccuracy:
    @pytest.mark.parametrize("dist", ["uniform", "zipf", "bimodal"])
    def test_within_one_percent_of_oracle(self, dist):
        data = _draw(dist, 100_000, 7)
        sk = QuantileSketch()
        sk.observe_many(data)
        for q in GATED:
            exact = float(np.percentile(data, q))
            est = sk.quantile(q)
            assert abs(est - exact) / abs(exact) < 0.01, (dist, q, est, exact)

    def test_design_accuracy_respected_per_sample(self):
        # Every estimate is within the design relative accuracy of *some*
        # actual sample rank neighbourhood: bounded by the bucket width.
        data = _draw("uniform", 50_000, 11)
        sk = QuantileSketch(relative_accuracy=0.01)
        sk.observe_many(data)
        srt = np.sort(data)
        for q in (10.0, 50.0, 90.0, 99.0):
            est = sk.quantile(q)
            rank = int(round(q / 100.0 * (len(srt) - 1)))
            assert abs(est - srt[rank]) / srt[rank] < 0.03

    def test_clamped_to_observed_range(self):
        sk = QuantileSketch()
        sk.observe_many([3.0, 5.0, 9.0])
        assert sk.quantile(0) >= 3.0 - 1e-12
        assert sk.quantile(100) <= 9.0 + 1e-12

    def test_negative_and_zero_values(self):
        data = np.array([-10.0, -1.0, 0.0, 0.0, 1.0, 10.0])
        sk = QuantileSketch()
        sk.observe_many(data)
        assert sk.count == 6
        assert sk.quantile(0) == pytest.approx(-10.0, rel=0.02)
        assert sk.quantile(100) == pytest.approx(10.0, rel=0.02)
        mid = sk.quantile(50)
        assert -1.0 - 0.1 <= mid <= 1.0 + 0.1

    def test_values_near_the_float_limit(self):
        # γ**index overflows for the top buckets; the estimate is clamped
        # to the observed range instead of raising.
        sk = QuantileSketch()
        sk.observe_many([1.0, 1.7e308])
        sk.observe(-1.7e308)
        assert sk.quantile(100) == 1.7e308
        assert sk.quantile(0) == -1.7e308

    def test_empty_sketch_nan(self):
        sk = QuantileSketch()
        assert math.isnan(sk.quantile(50))
        assert sk.count == 0


class TestBatchesFoldInArrivalOrder:
    """A histogram's sketch is folded from its sample list when read, and
    must end in the state one scalar ``observe`` per sample in arrival
    order leaves — buckets, zero count, count, sum, sum of squares, min
    and max, i.e. all of ``export_state()`` — bit for bit, whether it is
    read after every batch or once at the end, and whichever route (the
    array pass or one ``observe`` each) the fold takes."""

    SIZES = (1, 2, 5, 63, 64, 65, 300)

    @staticmethod
    def fold_and_scalar(batches):
        """The sketch read after every batch, read once at the end, and
        the scalar reference."""
        each, once, scalar = Histogram("h"), Histogram("h"), QuantileSketch()
        for batch in batches:
            each.observe_many(batch)
            once.observe_many(batch)
            each.sketch.count
            for v in batch:
                scalar.observe(v)
        return each.sketch.export_state(), once.sketch.export_state(), scalar.export_state()

    @pytest.mark.parametrize("size", SIZES)
    def test_whole_numbers(self, size):
        gen = np.random.default_rng(size)
        batches = [
            [float(v) for v in gen.integers(-3, 40, size)] for _ in range(20)
        ] + [gen.integers(1, 16, size).tolist()]  # ints, as LDT fan-outs arrive
        each, once, scalar = self.fold_and_scalar(batches)
        assert each == once == scalar
        # The eager feed the program had (short batches one by one, long
        # ones in the array pass) lands in the same state.
        eager = EagerSketch()
        for batch in batches:
            eager.observe_many(batch)
        assert eager.export_state() == scalar

    def test_every_whole_number_lands_in_the_same_bucket(self):
        # math.log and np.log differ in the last bit on some inputs; no
        # whole number sits close enough to a bucket edge to notice.
        scalar, array = QuantileSketch(), QuantileSketch()
        values = [float(v) for v in range(1, 100_001)]
        for v in values:
            scalar.observe(v)
        array.observe_many(values)  # 100 000 values: the array pass
        assert scalar.export_state() == array.export_state()

    def test_whole_numbers_at_every_bucket_edge_the_fold_can_see(self):
        # The fold's array pass takes whole numbers whose squares stay
        # below 2**53; check the ones nearest every bucket edge up there.
        sk = QuantileSketch()
        top = math.isqrt(2**53)
        values = sorted({
            v
            for k in range(sk._bucket_index(top) + 1)
            for v in range(math.floor(sk._gamma**k) - 2, math.ceil(sk._gamma**k) + 3)
            if 1 <= v <= top
        })
        scalar, array = QuantileSketch(), QuantileSketch()
        for v in values:
            scalar.observe(v)
        array.observe_many(np.asarray(values, dtype=np.float64))
        assert scalar._pos == array._pos

    @pytest.mark.parametrize("size", SIZES)
    def test_fractions_keep_the_array_pass(self, size):
        # A running scalar sum of fractions can differ in the last bit
        # from numpy's pairwise sum / BLAS dot, so the fold never hands
        # them to the array pass.
        gen = np.random.default_rng(1000 + size)
        batches = [gen.lognormal(0.0, 2.0, size).tolist() for _ in range(20)]
        batches.append([1.0] * (size - 1) + [0.1])
        each, once, scalar = self.fold_and_scalar(batches)
        assert each == once == scalar

    def test_whole_batch_after_a_fractional_running_sum(self):
        # The array pass would add the batch's exact sum to 1/3 in one
        # rounding; one observe each rounds at every step.
        each, once, scalar = self.fold_and_scalar([[1 / 3], [1, 2]])
        assert each == once == scalar
        array = QuantileSketch()
        array.observe(1 / 3)
        array.observe_many(np.array([1.0, 2.0]))
        assert array.export_state()["sum"] != scalar["sum"]

    def test_histogram_feeds_list_and_sketch_alike(self):
        short, one_by_one = Histogram("h"), Histogram("h")
        short.observe_many((3, 1, 4, 1, 5))
        for v in (3, 1, 4, 1, 5):
            one_by_one.observe(v)
        assert short.samples.tolist() == one_by_one.samples.tolist()
        assert short.sketch.export_state() == one_by_one.sketch.export_state()


class TestMemoryBound:
    def test_bucket_count_does_not_scale_with_samples(self):
        gen = np.random.default_rng(3)
        sk_small = QuantileSketch()
        sk_small.observe_many(gen.lognormal(0.0, 1.0, 10_000))
        sk_big = QuantileSketch()
        sk_big.observe_many(np.random.default_rng(3).lognormal(0.0, 1.0, 500_000))
        # 50x the samples, same value range: bucket count is a property
        # of the range and accuracy, not of n.
        assert sk_big.bucket_count <= sk_small.bucket_count * 2
        assert sk_big.bucket_count <= sk_big.max_buckets

    def test_collapse_enforces_hard_cap(self):
        sk = QuantileSketch(max_buckets=64)
        gen = np.random.default_rng(5)
        sk.observe_many(np.exp(gen.uniform(-20, 20, 20_000)))
        assert sk.bucket_count <= 64
        assert sk.count == 20_000
        # Collapse folds the *low* end: the upper tail stays accurate.
        assert sk.quantile(99) > sk.quantile(50)


class TestMerge:
    def test_merge_matches_single_pass_exactly(self):
        data = _draw("zipf", 30_000, 13)
        whole = QuantileSketch()
        whole.observe_many(data)
        merged = QuantileSketch()
        for chunk in np.array_split(data, 7):
            part = QuantileSketch()
            part.observe_many(chunk)
            merged.merge(part)
        assert merged.state_equal(whole)

    def test_merge_associative_any_order(self):
        data = _draw("uniform", 12_000, 17)
        parts = []
        for chunk in np.array_split(data, 4):
            sk = QuantileSketch()
            sk.observe_many(chunk)
            parts.append(sk)
        ab_cd = QuantileSketch()
        for p in (parts[0], parts[1], parts[2], parts[3]):
            ab_cd.merge(p)
        dc_ba = QuantileSketch()
        for p in (parts[3], parts[2], parts[1], parts[0]):
            dc_ba.merge(p)
        assert ab_cd.state_equal(dc_ba)

    def test_export_roundtrip(self):
        sk = QuantileSketch()
        sk.observe_many(_draw("bimodal", 5_000, 19))
        clone = QuantileSketch.from_state(sk.export_state())
        assert clone.state_equal(sk)
        assert clone.quantile(99) == sk.quantile(99)


def _sketch_worker(chunk):
    """Module-level (picklable) worker: sketch one chunk, export state."""
    sk = QuantileSketch()
    sk.observe_many(list(chunk))
    return sk.export_state()


class TestSweepMapMerge:
    def test_worker_merge_matches_serial(self):
        # The ``--jobs 2`` parity claim in miniature: states produced in
        # forked workers merge to exactly the single-process sketch.
        data = _draw("zipf", 8_000, 23)
        chunks = [tuple(c.tolist()) for c in np.array_split(data, 4)]
        with sweep_session(SweepConfig(jobs=2)):
            states = sweep_map(_sketch_worker, chunks)
        merged = QuantileSketch()
        for state in states:
            merged.merge(QuantileSketch.from_state(state))
        whole = QuantileSketch()
        whole.observe_many(data)
        assert merged.state_equal(whole)


class TestHistogramModes:
    def test_exact_mode_keeps_oracle_and_sketch(self):
        h = Histogram("lat")
        for v in (1.0, 2.0, 3.0, 10.0):
            h.observe(v)
        assert h.samples.tolist() == [1.0, 2.0, 3.0, 10.0]
        assert h.sketch.count == 4
        assert h.sketch_quantile(50) == pytest.approx(2.0, rel=0.02)

    def test_merge_folds_own_tail_once(self):
        # The parent's unread samples fold before the worker's sketch
        # adds, and the worker's samples are not folded a second time.
        parent, worker = Histogram("lat"), Histogram("lat")
        parent.observe(1.0)
        worker.observe(2.0)
        parent.merge_exported(worker.export_state())
        parent.observe(3.0)
        whole = QuantileSketch()
        for v in (1.0, 2.0, 3.0):
            whole.observe(v)
        assert parent.samples.tolist() == [1.0, 2.0, 3.0]
        assert parent.sketch.state_equal(whole)

    def test_snapshot_has_all_tail_quantiles(self):
        reg = MetricsRegistry()
        h = reg.histogram("disc.hops")
        for v in range(1, 101):
            h.observe(float(v))
        snap = reg.snapshot()
        for label, q in TAIL_QUANTILES:
            key = f"disc.hops.{label}"
            assert key in snap
            assert snap[key] == pytest.approx(
                float(np.percentile(np.arange(1.0, 101.0), q)), rel=0.02
            )
