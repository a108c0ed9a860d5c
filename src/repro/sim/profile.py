"""Phase-level wall-clock profiling for experiment drivers.

PR 1 showed the value of printing run observability (cache counters) under
each result table; :class:`PhaseProfiler` generalises that to *time*: the
drivers wrap their build / warmup / route stages in :meth:`PhaseProfiler.phase`
and report where the wall-clock went, both as table footers and in the
machine-readable run manifest.

The profiler is purely wall-clock (``time.perf_counter``); virtual time
lives in the tracer's spans.
"""

from __future__ import annotations

import contextlib
from time import perf_counter
from typing import Dict, Iterable, Iterator, Optional

__all__ = ["PhaseProfiler"]


class PhaseProfiler:
    """Accumulates wall-clock seconds per named phase.

    Phases re-entered multiple times accumulate (ten ``route`` phases sum
    into one ``route`` total with an entry count).  A disabled profiler's
    :meth:`phase` is a no-op context manager, so drivers can use it
    unconditionally.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._totals: Dict[str, float] = {}
        self._counts: Dict[str, int] = {}

    @contextlib.contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Time the enclosed block under ``name`` (re-entrant, additive)."""
        if not self.enabled:
            yield
            return
        t0 = perf_counter()
        try:
            yield
        finally:
            self.add(name, perf_counter() - t0)

    def add(self, name: str, seconds: float) -> None:
        """Manually account ``seconds`` of wall time to phase ``name``."""
        if not self.enabled:
            return
        self._totals[name] = self._totals.get(name, 0.0) + float(seconds)
        self._counts[name] = self._counts.get(name, 0) + 1

    def wall_times(self) -> Dict[str, float]:
        """Accumulated seconds per phase, in first-entered order."""
        return dict(self._totals)

    def counts(self) -> Dict[str, int]:
        """Number of times each phase was entered."""
        return dict(self._counts)

    def total(self) -> float:
        """Sum of all phase totals."""
        return sum(self._totals.values())

    def footer_line(
        self,
        names: Optional[Iterable[str]] = None,
        label: str = "phases",
        precision: int = 3,
        since: Optional[Dict[str, float]] = None,
    ) -> str:
        """One table-footer line, e.g. ``phases: build 0.41s, route 1.2s``.

        ``names`` restricts (and orders) the reported phases; unknown
        names are skipped so drivers can name phases optimistically.
        ``since``, an earlier :meth:`wall_times`, reports only the time
        each phase gained after it.
        """
        base = since if since is not None else {}
        totals = {n: t - base.get(n, 0.0) for n, t in self._totals.items() if t != base.get(n)}
        selected = list(totals) if names is None else [n for n in names if n in totals]
        if not selected:
            return f"{label}: (none recorded)"
        parts = [f"{n} {totals[n]:.{precision}f}s" for n in selected]
        return f"{label}: " + ", ".join(parts)

    def reset(self) -> None:
        """Drop all accumulated phase data."""
        self._totals.clear()
        self._counts.clear()

    # ------------------------------------------------------------------
    # Cross-process merge (sweep workers → parent session)
    # ------------------------------------------------------------------
    def export_state(self) -> Dict[str, Dict]:
        """Picklable snapshot of phase totals and entry counts."""
        return {"totals": dict(self._totals), "counts": dict(self._counts)}

    def merge_state(self, state: Dict[str, Dict]) -> None:
        """Fold a worker's :meth:`export_state` into this profiler.

        Phase seconds and entry counts are attributed additively, exactly
        as if the worker's ``phase`` blocks had run in this process (note
        that summed worker wall-time can exceed elapsed wall-time when
        phases ran concurrently).
        """
        if not self.enabled:
            return
        for name, seconds in state.get("totals", {}).items():
            self._totals[name] = self._totals.get(name, 0.0) + float(seconds)
        for name, count in state.get("counts", {}).items():
            self._counts[name] = self._counts.get(name, 0) + int(count)
