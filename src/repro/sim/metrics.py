"""Metric collection: counters, gauges, histograms, and time series.

Experiments record everything through a :class:`MetricsRegistry`; the
benchmark harness then formats the registry into the tables/series that the
paper's figures report.  All accumulators are NumPy-friendly (histogram
samples are held in grow-only Python lists and converted to arrays only
when statistics are requested — cheap appends in the hot path, vectorised
math at summary time, per the hpc-parallel guidance).

Every histogram additionally feeds a :class:`QuantileSketch` — a
deterministic log-bucketed (DDSketch-style) estimator with bounded
relative error — so tail quantiles (p50/p95/p99/p999) are available in
O(1) memory even when the exact sample list is disabled
(``Histogram(..., exact=False)``, the million-node mode).  The exact list
stays on by default and acts as the parity oracle for the sketch.
"""

from __future__ import annotations

import dataclasses
import math
from typing import (
    Collection,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

__all__ = [
    "Counter",
    "Histogram",
    "QuantileSketch",
    "TAIL_QUANTILES",
    "TimeSeries",
    "MetricsRegistry",
    "METRIC_NAMES",
    "RATIO_SUFFIXES",
    "record_cache_stats",
    "summarize",
]

#: The tail quantiles every histogram reports in snapshots/manifests,
#: as (suffix, percentile) pairs.
TAIL_QUANTILES: Tuple[Tuple[str, float], ...] = (
    ("p50", 50.0),
    ("p95", 95.0),
    ("p99", 99.0),
    ("p999", 99.9),
)

#: Values below this magnitude land in the sketch's zero bucket (the log
#: bucketing cannot distinguish them anyway).
_MIN_TRACKABLE = 1e-12

#: Batch size from which :meth:`QuantileSketch.observe_many` buckets with
#: numpy.  Measured: the array pass costs 25-30 µs at any size up to 64
#: (``asarray``/``isfinite``/``log``/``unique`` set-up), scalar ``observe``
#: ~0.42 µs a value — level at 64.  An LDT wave feeds about five fan-outs.
_VECTOR_MIN = 64


class Counter:
    """Monotonic (or signed) event counter."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (may be negative for gauges-as-counters)."""
        self.value += amount

    def set(self, value: int) -> None:
        """Overwrite the counter (mirroring an externally-kept tally)."""
        self.value = value

    def reset(self) -> None:
        """Zero the counter."""
        self.value = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Counter({self.name}={self.value})"


class QuantileSketch:
    """Deterministic fixed-memory streaming quantile estimator.

    A DDSketch-style log-bucketed sketch: a positive value ``v`` lands in
    bucket ``ceil(log(v) / log(γ))`` with ``γ = (1+α)/(1−α)``, so every
    value in a bucket is within relative error ``α`` of the bucket's
    midpoint estimate.  Negative values mirror into a second bucket map
    and near-zeros share one zero bucket.  Memory is bounded by the
    *dynamic range* of the data (≈ ``log(max/min)/log γ`` buckets, capped
    at ``max_buckets`` by collapsing the lowest buckets), never by the
    sample count — O(1) in n.

    Unlike P²/KLL sketches the bucketing is **randomness-free** and merges
    are exact integer additions, so merged worker sketches are
    bit-identical to one sketch that saw every sample (whatever the
    grouping or order — the ``sweep_map`` parity invariant), and the
    estimator never consumes RNG state.
    """

    def __init__(
        self, relative_accuracy: float = 0.005, max_buckets: int = 4096
    ) -> None:
        if not 0.0 < relative_accuracy < 1.0:
            raise ValueError("relative_accuracy must be in (0, 1)")
        if max_buckets < 8:
            raise ValueError("max_buckets must be >= 8")
        self.relative_accuracy = float(relative_accuracy)
        self.max_buckets = int(max_buckets)
        self._gamma = (1.0 + relative_accuracy) / (1.0 - relative_accuracy)
        self._log_gamma = math.log(self._gamma)
        self._pos: Dict[int, int] = {}
        self._neg: Dict[int, int] = {}
        self._zero = 0
        self._count = 0
        self._sum = 0.0
        self._sum_sq = 0.0
        self._min = math.inf
        self._max = -math.inf

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _bucket_index(self, magnitude: float) -> int:
        return int(math.ceil(math.log(magnitude) / self._log_gamma))

    def observe(self, value: float) -> None:
        """Record one sample (non-finite values are ignored)."""
        v = float(value)
        if not math.isfinite(v):
            return
        self._count += 1
        self._sum += v
        self._sum_sq += v * v
        if v < self._min:
            self._min = v
        if v > self._max:
            self._max = v
        mag = abs(v)
        if mag < _MIN_TRACKABLE:
            self._zero += 1
            return
        buckets = self._pos if v > 0.0 else self._neg
        idx = self._bucket_index(mag)
        buckets[idx] = buckets.get(idx, 0) + 1
        if len(buckets) > self.max_buckets:
            self._collapse(buckets)

    def observe_many(self, values: Sequence[float]) -> None:
        """Record a batch of samples — one vectorised bucketing pass, or
        one :meth:`observe` per value for a short batch of whole numbers.

        Only whole numbers, because only they leave the same state either
        way: their sums are exact in any association, while a running sum
        of fractions can differ in the last bit from numpy's pairwise
        ``sum`` and BLAS ``dot``.
        """
        if (
            isinstance(values, (list, tuple))
            and len(values) < _VECTOR_MIN
            and all([float(v).is_integer() for v in values])
        ):
            for v in values:
                self.observe(v)
            return
        arr = np.asarray(values, dtype=np.float64).ravel()
        if arr.size == 0:
            return
        finite = arr[np.isfinite(arr)]
        if finite.size == 0:
            return
        self._count += int(finite.size)
        self._sum += float(finite.sum())
        self._sum_sq += float(np.dot(finite, finite))
        self._min = min(self._min, float(finite.min()))
        self._max = max(self._max, float(finite.max()))
        mags = np.abs(finite)
        near_zero = mags < _MIN_TRACKABLE
        self._zero += int(near_zero.sum())
        for buckets, mask in (
            (self._pos, (finite > 0.0) & ~near_zero),
            (self._neg, (finite < 0.0) & ~near_zero),
        ):
            chunk = mags[mask]
            if chunk.size == 0:
                continue
            idxs = np.ceil(np.log(chunk) / self._log_gamma).astype(np.int64)
            uniq, counts = np.unique(idxs, return_counts=True)
            for i, c in zip(uniq.tolist(), counts.tolist()):
                buckets[i] = buckets.get(i, 0) + int(c)
            if len(buckets) > self.max_buckets:
                self._collapse(buckets)

    def _collapse(self, buckets: Dict[int, int]) -> None:
        """Fold the lowest buckets together until under the cap (keeps
        high-quantile accuracy; only the low tail coarsens)."""
        while len(buckets) > self.max_buckets:
            low = sorted(buckets)[:2]
            buckets[low[1]] = buckets.get(low[1], 0) + buckets.pop(low[0])

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        """Samples recorded (excluding ignored non-finite values)."""
        return self._count

    @property
    def bucket_count(self) -> int:
        """Buckets currently held — the memory footprint metric."""
        return len(self._pos) + len(self._neg) + (1 if self._zero else 0)

    def mean(self) -> float:
        """Arithmetic mean of the recorded samples; NaN when empty."""
        return self._sum / self._count if self._count else math.nan

    def std(self) -> float:
        """Population standard deviation; NaN when empty."""
        if not self._count:
            return math.nan
        var = self._sum_sq / self._count - (self._sum / self._count) ** 2
        return math.sqrt(max(var, 0.0))

    def min(self) -> float:
        """Smallest sample (exact); NaN when empty."""
        return self._min if self._count else math.nan

    def max(self) -> float:
        """Largest sample (exact); NaN when empty."""
        return self._max if self._count else math.nan

    def total(self) -> float:
        """Sum of all samples (0 when empty)."""
        return self._sum

    def _bucket_midpoint(self, idx: int) -> float:
        return 2.0 * self._gamma**idx / (self._gamma + 1.0)

    def quantile(self, q: float) -> float:
        """The ``q``-th percentile estimate (0..100); NaN when empty.

        Scans buckets in ascending value order (negatives descending by
        index, the zero bucket, positives ascending) for the bucket
        containing rank ``q/100·(n−1)`` — the same rank convention NumPy's
        linear interpolation targets — and returns that bucket's midpoint
        clamped to the exact observed [min, max].
        """
        if not self._count:
            return math.nan
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        rank = (q / 100.0) * (self._count - 1)
        cum = 0
        estimate = self._max
        found = False
        for idx in sorted(self._neg, reverse=True):
            cum += self._neg[idx]
            if cum > rank:
                estimate = -self._bucket_midpoint(idx)
                found = True
                break
        if not found and self._zero:
            cum += self._zero
            if cum > rank:
                estimate = 0.0
                found = True
        if not found:
            for idx in sorted(self._pos):
                cum += self._pos[idx]
                if cum > rank:
                    estimate = self._bucket_midpoint(idx)
                    break
        return min(max(estimate, self._min), self._max)

    # ------------------------------------------------------------------
    # Merge / state transport
    # ------------------------------------------------------------------
    def merge(self, other: "QuantileSketch") -> None:
        """Fold another sketch in (exact: integer bucket additions)."""
        if not math.isclose(other._gamma, self._gamma):
            raise ValueError("cannot merge sketches with different accuracy")
        for idx, c in other._pos.items():
            self._pos[idx] = self._pos.get(idx, 0) + c
        for idx, c in other._neg.items():
            self._neg[idx] = self._neg.get(idx, 0) + c
        self._zero += other._zero
        self._count += other._count
        self._sum += other._sum
        self._sum_sq += other._sum_sq
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)
        if len(self._pos) > self.max_buckets:
            self._collapse(self._pos)
        if len(self._neg) > self.max_buckets:
            self._collapse(self._neg)

    def export_state(self) -> Dict[str, object]:
        """Picklable snapshot for worker→parent merges."""
        return {
            "relative_accuracy": self.relative_accuracy,
            "pos": dict(self._pos),
            "neg": dict(self._neg),
            "zero": self._zero,
            "count": self._count,
            "sum": self._sum,
            "sum_sq": self._sum_sq,
            "min": self._min,
            "max": self._max,
        }

    @classmethod
    def from_state(cls, state: Mapping[str, object]) -> "QuantileSketch":
        """Reconstruct a sketch from :meth:`export_state` output."""
        sk = cls(relative_accuracy=float(state["relative_accuracy"]))  # type: ignore[arg-type]
        sk._pos = {int(k): int(v) for k, v in state["pos"].items()}  # type: ignore[union-attr]
        sk._neg = {int(k): int(v) for k, v in state["neg"].items()}  # type: ignore[union-attr]
        sk._zero = int(state["zero"])  # type: ignore[arg-type]
        sk._count = int(state["count"])  # type: ignore[arg-type]
        sk._sum = float(state["sum"])  # type: ignore[arg-type]
        sk._sum_sq = float(state["sum_sq"])  # type: ignore[arg-type]
        sk._min = float(state["min"])  # type: ignore[arg-type]
        sk._max = float(state["max"])  # type: ignore[arg-type]
        return sk

    def state_equal(self, other: "QuantileSketch") -> bool:
        """True when two sketches hold identical state (the merge
        associativity/parity check)."""
        return (
            self._pos == other._pos
            and self._neg == other._neg
            and self._zero == other._zero
            and self._count == other._count
            and self._min == other._min
            and self._max == other._max
        )


class Histogram:
    """Sample accumulator with summary statistics.

    Samples are appended in O(1); statistics are computed lazily with
    NumPy.  Every observation also feeds a :class:`QuantileSketch`, so
    tail quantiles survive in O(1) memory when the exact sample list is
    turned off (``exact=False``).  With the default ``exact=True`` the
    list is the authoritative source for :meth:`mean`/:meth:`percentile`
    — results are bit-identical to a sketch-free histogram — and the
    sketch answers only the ``p50/p95/p99/p999`` snapshot entries.

    The exact list is this repo's one allow-listed unbounded per-sample
    accumulator (lint rule BRS008): it is the parity oracle the sketch is
    validated against.
    """

    def __init__(self, name: str, exact: bool = True) -> None:
        self.name = name
        self._samples: Optional[List[float]] = [] if exact else None
        self.sketch = QuantileSketch()

    @property
    def exact(self) -> bool:
        """True while the exact per-sample list is retained."""
        return self._samples is not None

    def observe(self, value: float) -> None:
        """Record one sample."""
        v = float(value)
        if self._samples is not None:
            self._samples.append(v)
        self.sketch.observe(v)

    def observe_many(self, values: Iterable[float]) -> None:
        """Record a batch of samples."""
        batch = [float(v) for v in values]
        if self._samples is not None:
            self._samples.extend(batch)
        self.sketch.observe_many(batch)

    def __len__(self) -> int:
        if self._samples is not None:
            return len(self._samples)
        return self.sketch.count

    @property
    def samples(self) -> np.ndarray:
        """All samples as a NumPy array (copy); requires ``exact``."""
        if self._samples is None:
            raise RuntimeError(
                f"histogram {self.name!r} is sketch-only (exact=False); "
                "raw samples were not retained"
            )
        return np.asarray(self._samples, dtype=np.float64)

    def mean(self) -> float:
        """Arithmetic mean; NaN when empty."""
        if self._samples is not None:
            return float(np.mean(self._samples)) if self._samples else math.nan
        return self.sketch.mean()

    def std(self) -> float:
        """Population standard deviation; NaN when empty."""
        if self._samples is not None:
            return float(np.std(self._samples)) if self._samples else math.nan
        return self.sketch.std()

    def percentile(self, q: float) -> float:
        """q-th percentile (0..100); NaN when empty.

        Exact (NumPy linear interpolation) while the sample list is
        retained; the sketch's bounded-relative-error estimate otherwise.
        """
        if self._samples is not None:
            return float(np.percentile(self._samples, q)) if self._samples else math.nan
        return self.sketch.quantile(q)

    def sketch_quantile(self, q: float) -> float:
        """The sketch's q-th percentile estimate (0..100) — O(1) memory,
        identical across serial and merged-worker runs."""
        return self.sketch.quantile(q)

    def min(self) -> float:
        """Smallest sample; NaN when empty."""
        if self._samples is not None:
            return float(np.min(self._samples)) if self._samples else math.nan
        return self.sketch.min()

    def max(self) -> float:
        """Largest sample; NaN when empty."""
        if self._samples is not None:
            return float(np.max(self._samples)) if self._samples else math.nan
        return self.sketch.max()

    def total(self) -> float:
        """Sum of all samples (0 when empty)."""
        if self._samples is not None:
            return float(np.sum(self._samples)) if self._samples else 0.0
        return self.sketch.total()

    def reset(self) -> None:
        """Drop all samples (and the sketch's state)."""
        if self._samples is not None:
            self._samples.clear()
        self.sketch = QuantileSketch()

    # ------------------------------------------------------------------
    # Cross-process merge
    # ------------------------------------------------------------------
    def export_state(self) -> Dict[str, object]:
        """Picklable snapshot: raw samples (when exact) plus the sketch."""
        return {
            "samples": list(self._samples) if self._samples is not None else None,
            "sketch": self.sketch.export_state(),
        }

    def merge_exported(self, state: Mapping[str, object]) -> None:
        """Fold a worker histogram's :meth:`export_state` in.

        Samples extend the exact list and sketch buckets add — each path
        merged independently so nothing is double-counted.  A sketch-only
        worker histogram (samples ``None``) degrades this histogram to
        sketch-only too: a partial sample list would silently misreport
        exact statistics.
        """
        samples = state.get("samples")
        if samples is None:
            self._samples = None
        elif self._samples is not None:
            self._samples.extend(float(s) for s in samples)
        sketch_state = state.get("sketch")
        if isinstance(sketch_state, Mapping):
            self.sketch.merge(QuantileSketch.from_state(sketch_state))


class TimeSeries:
    """(time, value) pairs, e.g. load over virtual time."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._times: List[float] = []
        self._values: List[float] = []

    def record(self, time: float, value: float) -> None:
        """Append one point; times need not be distinct but must not regress."""
        if self._times and time < self._times[-1]:
            raise ValueError(f"time regression in series {self.name!r}: {time} < {self._times[-1]}")
        self._times.append(float(time))
        self._values.append(float(value))

    def __len__(self) -> int:
        return len(self._times)

    def arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return (times, values) as NumPy arrays."""
        return (
            np.asarray(self._times, dtype=np.float64),
            np.asarray(self._values, dtype=np.float64),
        )

    def last(self) -> Tuple[float, float]:
        """Most recent (time, value); raises when empty."""
        if not self._times:
            raise IndexError(f"series {self.name!r} is empty")
        return self._times[-1], self._values[-1]


class MetricsRegistry:
    """Named collection of counters, histograms and time series."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._series: Dict[str, TimeSeries] = {}

    def counter(self, name: str) -> Counter:
        """Get (or create) the counter ``name``."""
        c = self._counters.get(name)
        if c is None:
            c = Counter(name)
            self._counters[name] = c
        return c

    def histogram(self, name: str, *, exact: bool = True) -> Histogram:
        """Get (or create) the histogram ``name``.

        ``exact`` only matters on first creation: ``exact=False`` makes
        the new histogram sketch-only (O(1) memory, bounded-error
        quantiles) — the mode ROADMAP item 1's million-node runs use.
        """
        h = self._histograms.get(name)
        if h is None:
            h = Histogram(name, exact=exact)
            self._histograms[name] = h
        return h

    def series(self, name: str) -> TimeSeries:
        """Get (or create) the time series ``name``."""
        s = self._series.get(name)
        if s is None:
            s = TimeSeries(name)
            self._series[name] = s
        return s

    @property
    def counters(self) -> Mapping[str, Counter]:
        return self._counters

    @property
    def histograms(self) -> Mapping[str, Histogram]:
        return self._histograms

    @property
    def series_map(self) -> Mapping[str, TimeSeries]:
        return self._series

    def snapshot(self) -> Dict[str, float]:
        """Flat {name: value} view of every accumulator.

        Counters contribute their value, histograms ``<name>.mean`` and
        ``<name>.count`` plus the :data:`TAIL_QUANTILES` sketch estimates
        (``<name>.p50`` … ``<name>.p999``), and time series
        ``<name>.last`` (NaN when empty) and ``<name>.count`` — no
        accumulator kind is silently omitted.
        """
        out: Dict[str, float] = {}
        for name, c in self._counters.items():
            out[name] = float(c.value)
        for name, h in self._histograms.items():
            out[name + ".mean"] = h.mean()
            out[name + ".count"] = float(len(h))
            for suffix, q in TAIL_QUANTILES:
                out[f"{name}.{suffix}"] = h.sketch_quantile(q)
        for name, s in self._series.items():
            out[name + ".last"] = s.last()[1] if len(s) else math.nan
            out[name + ".count"] = float(len(s))
        return out

    def tail_latency_section(self) -> Dict[str, Dict[str, Optional[float]]]:
        """Per-histogram tail quantiles for the run manifest: ``{name:
        {p50, p95, p99, p999}}`` with non-finite values nulled."""
        out: Dict[str, Dict[str, Optional[float]]] = {}
        for name, h in self._histograms.items():
            entry: Dict[str, Optional[float]] = {}
            for suffix, q in TAIL_QUANTILES:
                v = h.sketch_quantile(q)
                entry[suffix] = v if math.isfinite(v) else None
            out[name] = entry
        return out

    def reset(self) -> None:
        """Reset all accumulators (names are kept)."""
        for c in self._counters.values():
            c.reset()
        for h in self._histograms.values():
            h.reset()
        self._series.clear()

    # ------------------------------------------------------------------
    # Cross-process merge (sweep workers → parent session)
    # ------------------------------------------------------------------
    def export_state(self) -> Dict[str, object]:
        """Picklable snapshot of every accumulator, for worker→parent merge.

        Unlike :meth:`snapshot` (a flat numeric view), this keeps full
        fidelity: raw histogram samples *and* sketch buckets travel across
        the process boundary so the merged registry is indistinguishable
        from one that recorded everything in-process.
        """
        return {
            "counters": {n: c.value for n, c in self._counters.items()},
            "histograms": {n: h.export_state() for n, h in self._histograms.items()},
            "series": {
                n: (list(s._times), list(s._values)) for n, s in self._series.items()
            },
        }

    def merge_state(self, state: Mapping[str, object]) -> None:
        """Fold a worker's :meth:`export_state` into this registry.

        Counters are summed; histogram samples are extended and sketch
        buckets added (each independently — no double counting); series
        points are appended with times clamped to this registry's last
        recorded time (worker clocks are process-local and may sit behind
        the parent's; clamping preserves every point without violating
        monotonicity).  A plain sample list (the pre-sketch export
        format) is still accepted and re-observed.
        """
        for name, value in state.get("counters", {}).items():  # type: ignore[union-attr]
            self.counter(name).inc(int(value))
        histograms: Mapping[str, Union[Mapping[str, object], Sequence[float]]]
        histograms = state.get("histograms", {})  # type: ignore[assignment]
        for name, payload in histograms.items():
            h = self.histogram(name)
            if isinstance(payload, Mapping):
                h.merge_exported(payload)
            else:
                h.observe_many(payload)
        for name, (times, values) in state.get("series", {}).items():  # type: ignore[union-attr]
            s = self.series(name)
            floor = s._times[-1] if s._times else float("-inf")
            for t, v in zip(times, values):
                floor = max(floor, float(t))
                s.record(floor, v)


#: Name suffixes treated as ratio-valued by default: these stats stay
#: histograms even when their value happens to be a whole number (a
#: ``hit_rate`` of exactly 0.0 or 1.0 must not turn into a counter).
RATIO_SUFFIXES: Tuple[str, ...] = ("rate", "ratio", "fraction")


def record_cache_stats(
    registry: MetricsRegistry,
    stats: Mapping[str, float],
    prefix: str = "oracle",
    ratios: Optional[Collection[str]] = None,
) -> None:
    """Mirror a :meth:`PathOracle.cache_stats` snapshot into ``registry``.

    Integer tallies (hits, misses, evictions, dijkstra_runs, …) become
    counters named ``<prefix>.<stat>``; derived ratios such as
    ``hit_rate`` are recorded as histogram observations so repeated
    snapshots aggregate sensibly (``<prefix>.hit_rate.mean`` in
    :meth:`MetricsRegistry.snapshot`).  NaN ratios (no lookups yet) are
    skipped.

    The counter/histogram split is explicit: a stat is ratio-valued when
    its *name* says so — it is listed in ``ratios``, or (when ``ratios``
    is ``None``) it ends with one of :data:`RATIO_SUFFIXES` — so a
    ``hit_rate`` of exactly 0.0 or 1.0 still lands in the histogram.
    Any stat with a fractional value is also kept as a histogram, since
    counters are integer-valued.
    """
    for name, value in stats.items():
        v = float(value)
        if math.isnan(v):
            continue
        if ratios is not None:
            is_ratio = name in ratios
        else:
            is_ratio = name.endswith(RATIO_SUFFIXES)
        if is_ratio or v != int(v):
            registry.histogram(f"{prefix}.{name}").observe(v)
        else:
            registry.counter(f"{prefix}.{name}").set(int(v))


@dataclasses.dataclass
class Summary:
    """Five-number-ish summary of a sample set (with tail percentiles)."""

    count: int
    mean: float
    std: float
    p50: float
    p95: float
    min: float
    max: float
    p99: float = math.nan
    p999: float = math.nan


def summarize(values: Sequence[float]) -> Summary:
    """Summarise a sequence of samples (NaN fields when empty)."""
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        return Summary(0, math.nan, math.nan, math.nan, math.nan, math.nan, math.nan)
    return Summary(
        count=int(arr.size),
        mean=float(arr.mean()),
        std=float(arr.std()),
        p50=float(np.percentile(arr, 50)),
        p95=float(np.percentile(arr, 95)),
        p99=float(np.percentile(arr, 99)),
        p999=float(np.percentile(arr, 99.9)),
        min=float(arr.min()),
        max=float(arr.max()),
    )


__all__.append("Summary")


#: Central catalogue of every metric name the project emits, keyed by
#: literal name or ``prefix.*`` wildcard (dynamic tails such as
#: ``f"messages.{kind}"``), with the factory kind each name must use.
#: The whole-program linter (BRS012, :mod:`repro.lint.wholeprogram`)
#: cross-checks emit sites, literal-name consumers, manifest validators
#: and bench gates against this registry: an unregistered emitter, a
#: kind mismatch, a consumer with no live emitter, or a stale entry all
#: fail the lint run.  Entries are data only — registration never
#: changes how a metric accumulates.
METRIC_NAMES: Dict[str, str] = {
    # -- routing (repro.core.routing / protocol) -----------------------
    "route.count": "counter",
    "route.failures": "counter",
    "route.app_hops": "histogram",
    "route.path_cost": "histogram",
    "route.resolutions": "histogram",
    "messages.*": "counter",
    "latency.*": "histogram",
    # -- §2.3 location operations (repro.core.bristle) -----------------
    "op.join.count": "counter",
    "op.join.registrations": "histogram",
    "op.leave.count": "counter",
    "op.leave.unregistrations": "histogram",
    "op.register.count": "counter",
    "op.register.refreshed": "counter",
    "op.unregister.count": "counter",
    "op.update.count": "counter",
    "op.update.publish_messages": "counter",
    "op.update.total_messages": "histogram",
    "op.update.ldt_messages": "histogram",
    "op.update.ldt_depth": "histogram",
    "op.update.path_cost": "histogram",
    "op.update_many.count": "counter",
    "op.update_many.publish_messages": "counter",
    "op.update_many.multicast_hops": "counter",
    "op.update_many.total_messages": "histogram",
    "op.update_many.ldt_messages": "histogram",
    "op.update_many.ldt_depth": "histogram",
    "op.update_many.batch_size": "histogram",
    "op.discover.count": "counter",
    # -- discovery detours (repro.core.protocol) -----------------------
    "discovery.hops": "histogram",
    "discovery.detour_hops": "histogram",
    "discovery.detour_cost": "histogram",
    "discovery.misses": "counter",
    "discover.rtt": "histogram",
    "advertise.makespan": "histogram",
    # -- LDT builds and multicast (repro.core.ldt) ---------------------
    "ldt.built": "counter",
    "ldt.depth": "histogram",
    "ldt.fanout": "histogram",
    "ldt.messages": "histogram",
    "ldt.multicast.fanout": "histogram",
    "ldt.cache_hits": "counter",
    "ldt.cache_misses": "counter",
    # -- overlay maintenance (repro.overlay) ---------------------------
    "overlay.repairs": "counter",
    "overlay.repaired_nodes": "counter",
    "overlay.mobile.add_node": "counter",
    "overlay.mobile.remove_node": "counter",
    # -- failure detection (repro.core.failure) ------------------------
    "heartbeats": "counter",
    "evictions": "counter",
    "detection_delay": "histogram",
    # -- runtime sanitizer (repro.sanitize) ----------------------------
    "sanitize.checks": "counter",
    "sanitize.checks.*": "counter",
    "sanitize.violations": "counter",
}
