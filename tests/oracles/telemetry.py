"""The eager telemetry feeds, as they were before recording became an
append: every ``Histogram.observe`` bucketed its sample into the sketch
at once, and every ``NodeLoadLedger.add`` incremented the count matrix.

They are the reference ``tests/test_telemetry_fold.py`` holds the
fold-on-read feeds to.  Only :class:`EagerSketch` is new: it is today's
``QuantileSketch`` with the short-batch route its ``observe_many`` had
(the array pass it delegates to is unchanged).
"""

from __future__ import annotations

import math
from itertools import repeat
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.sim.metrics import QuantileSketch
from repro.sim.nodestats import KINDS, imbalance_stats, top_hotspots

__all__ = ["EagerSketch", "EagerHistogram", "EagerLedger"]

#: Batch size from which :meth:`QuantileSketch.observe_many` buckets with
#: numpy.  Measured: the array pass costs 25-30 µs at any size up to 64
#: (``asarray``/``isfinite``/``log``/``unique`` set-up), scalar ``observe``
#: ~0.42 µs a value — level at 64.  An LDT wave feeds about five fan-outs.
_VECTOR_MIN = 64


_KIND_INDEX: Dict[str, int] = {k: i for i, k in enumerate(KINDS)}

#: Batch size from which :meth:`NodeLoadLedger.add_many` scatters with
#: ``np.add.at`` instead of looping.  Measured on this ledger (9000
#: registered nodes): the loop costs ~0.27 µs a key, the scatter ~2 µs
#: plus ~0.1 µs a key — level at 13, the scatter ahead from 16 (3.7 vs
#: 4.2 µs).  A route charges about a dozen forwarders, below the line.
_SCATTER_MIN = 16


class EagerSketch(QuantileSketch):
    """``QuantileSketch`` fed the way it was: short whole-number batches
    one :meth:`observe` at a time, everything else in the array pass."""

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
        super().observe_many(values)


class EagerHistogram:
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
        self.sketch = EagerSketch()

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
        self.sketch = EagerSketch()

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
            self.sketch.merge(EagerSketch.from_state(sketch_state))


class EagerLedger:
    """Vectorised per-node counters for every :data:`KINDS` load kind.

    Node keys register lazily on first touch; counts for all kinds share
    one ``(nodes, kinds)`` int64 matrix that doubles as it grows, so a
    bulk :meth:`add_many` is a single ``np.add.at`` scatter.  Recording
    is pure integer counting — no RNG draws, no oracle reads — so turning
    the ledger on cannot perturb simulation results.
    """

    def __init__(self) -> None:
        self._index: Dict[int, int] = {}
        self._keys: List[int] = []
        self._counts: np.ndarray = np.zeros((0, len(KINDS)), dtype=np.int64)

    def __len__(self) -> int:
        return len(self._keys)

    def _row(self, key: int) -> int:
        """Matrix row for ``key``, registering (and growing) on demand."""
        row = self._index.get(key)
        if row is not None:
            return row
        row = len(self._keys)
        if row >= self._counts.shape[0]:
            grown = np.zeros(
                (max(16, 2 * self._counts.shape[0]), len(KINDS)), dtype=np.int64
            )
            grown[: self._counts.shape[0]] = self._counts
            self._counts = grown
        self._index[key] = row
        self._keys.append(int(key))
        return row

    @staticmethod
    def _col(kind: str) -> int:
        try:
            return _KIND_INDEX[kind]
        except KeyError:
            raise ValueError(f"unknown load kind {kind!r}; expected one of {KINDS}")

    def register_nodes(self, keys: Iterable[int]) -> None:
        """Pre-register nodes at zero load, so imbalance statistics range
        over the whole population instead of only the nodes ever hit."""
        for key in keys:
            self._row(int(key))

    def add(self, kind: str, key: int, amount: int = 1) -> None:
        """Charge ``amount`` load of ``kind`` to node ``key``."""
        # Resolve the row before subscripting: _row may reallocate the
        # matrix while growing it.
        row = self._row(int(key))
        self._counts[row, self._col(kind)] += int(amount)

    def add_many(
        self, kind: str, keys: Iterable[int], amounts: Optional[Sequence[int]] = None
    ) -> None:
        """Charge ``kind`` to every entry of ``keys`` (repeats accumulate)
        — one unit each, or ``amounts[i]`` to ``keys[i]`` — as a single
        vectorised scatter-add."""
        key_list = [int(k) for k in keys]
        if not key_list:
            return
        col = self._col(kind)
        if len(key_list) < _SCATTER_MIN:
            for k, amount in zip(key_list, repeat(1) if amounts is None else amounts):
                row = self._row(k)
                self._counts[row, col] += amount
            return
        rows = np.fromiter(
            (self._row(k) for k in key_list), dtype=np.intp, count=len(key_list)
        )
        np.add.at(self._counts[:, col], rows, 1 if amounts is None else amounts)

    def total(self, kind: str) -> int:
        """Total load of ``kind`` across every node."""
        n = len(self._keys)
        return int(self._counts[:n, self._col(kind)].sum())

    def counts(self, kind: str) -> Dict[int, int]:
        """``node key → count`` for ``kind`` (registered nodes only)."""
        col = self._col(kind)
        return {k: int(self._counts[i, col]) for i, k in enumerate(self._keys)}

    def counts_array(self, kind: str) -> np.ndarray:
        """Count vector for ``kind`` over registered nodes (a copy,
        aligned with :attr:`keys`)."""
        n = len(self._keys)
        return self._counts[:n, self._col(kind)].copy()

    @property
    def keys(self) -> List[int]:
        """Registered node keys, in registration order (a copy)."""
        return list(self._keys)

    def imbalance(self, kind: str) -> Dict[str, float]:
        """:func:`imbalance_stats` over the registered population."""
        return imbalance_stats(self.counts_array(kind))

    def hotspots(self, kind: str, k: int = 10) -> List[Tuple[int, int]]:
        """Top-``k`` ``(node key, count)`` hotspots for ``kind``."""
        return top_hotspots(self.counts(kind), k)

    def manifest_section(self, top: int = 5) -> Dict[str, Dict[str, object]]:
        """The manifest's ``node_load`` section: per active kind, the
        imbalance stats plus a ``top`` hotspot table (``[key, count]``
        pairs).  Kinds with zero recorded load are omitted so quiet runs
        stay compact."""
        section: Dict[str, Dict[str, object]] = {}
        for kind in KINDS:
            arr = self.counts_array(kind)
            if arr.size == 0 or int(arr.sum()) == 0:
                continue
            stats = imbalance_stats(arr)
            entry: Dict[str, object] = {k: round(v, 9) for k, v in stats.items()}
            entry["top"] = [
                [int(key), int(count)] for key, count in self.hotspots(kind, top)
            ]
            section[kind] = entry
        return section

    # ------------------------------------------------------------------
    # Cross-process merge (sweep workers → parent session)
    # ------------------------------------------------------------------
    def export_state(self) -> Dict[str, object]:
        """Picklable snapshot (keys + per-kind counts) for worker→parent
        merges.  Merging exported states in any grouping yields the same
        ledger as recording everything in one process — counts are
        integers and addition is associative."""
        n = len(self._keys)
        return {
            "keys": list(self._keys),
            "counts": self._counts[:n].tolist(),
        }

    def merge_state(self, state: Mapping[str, object]) -> None:
        """Fold a worker's :meth:`export_state` into this ledger."""
        keys = state.get("keys", [])
        counts = state.get("counts", [])
        assert isinstance(keys, list) and isinstance(counts, list)
        for key, row in zip(keys, counts):
            r = self._row(int(key))
            self._counts[r] += np.asarray(row, dtype=np.int64)
