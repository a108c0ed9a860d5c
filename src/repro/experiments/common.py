"""Shared experiment infrastructure: result tables, text rendering, and
the drivers' hooks into the active telemetry session.

Every experiment returns a :class:`ResultTable` — named columns plus rows —
which the benchmark harness prints in the same shape as the paper's
figures/tables, and which tests assert against.

Telemetry rides along ambiently: drivers call :func:`driver_profiler` to
time their build/warmup/route phases (a no-op profiler outside a session)
and :func:`maybe_add_phase_footer` to report those wall-times under the
table when the CLI ran with ``--profile`` — no experiment signature ever
grows a telemetry parameter.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Iterable, List, Mapping, Optional

from ..sim.metrics import record_cache_stats
from ..sim.nodestats import KINDS
from ..sim.profile import PhaseProfiler
from ..sim.telemetry import active_telemetry

__all__ = [
    "ResultTable",
    "format_float",
    "driver_profiler",
    "maybe_add_phase_footer",
    "maybe_add_nodeload_footer",
    "add_sweep_cache_footer",
]

#: Shared disabled profiler handed to drivers outside a telemetry session
#: (``phase`` blocks cost one attribute check).
_NULL_PROFILER = PhaseProfiler(enabled=False)


def driver_profiler() -> PhaseProfiler:
    """The active session's phase profiler, or a shared disabled one.

    Drivers wrap their stages unconditionally::

        prof = driver_profiler()
        with prof.phase("build"):
            net = BristleNetwork(...)
    """
    tel = active_telemetry()
    return tel.profiler if tel is not None else _NULL_PROFILER


def maybe_add_phase_footer(
    table: "ResultTable",
    phases: Optional[Iterable[str]] = None,
    since: Optional[Dict[str, float]] = None,
) -> None:
    """Append the session's phase wall-times as a table footer — only
    those gained after ``since``, an earlier ``profiler.wall_times()``.

    Only acts when a telemetry session is active *and* asked for footers
    (the CLI's ``--profile``); silent otherwise so drivers call it
    unconditionally.
    """
    tel = active_telemetry()
    if tel is not None and tel.show_phase_footers:
        table.add_footer(tel.profiler.footer_line(phases, since=since))


def maybe_add_nodeload_footer(
    table: "ResultTable", kinds: Optional[Iterable[str]] = None
) -> None:
    """Append the session's per-node load imbalance as a table footer.

    One line per requested load kind (default: every kind with recorded
    load), e.g. ``node load [detour]: 421 over 64 nodes, max/mean 3.2x,
    gini 0.41, top [0x1f=87, ...]``.  Gated exactly like
    :func:`maybe_add_phase_footer` (the CLI's ``--profile``), so default
    result tables stay byte-identical with the ledger always on.
    """
    tel = active_telemetry()
    if tel is None or not tel.show_phase_footers:
        return
    ledger = tel.nodeload
    for kind in kinds if kinds is not None else KINDS:
        stats = ledger.imbalance(kind)
        if stats["total"] <= 0:
            continue
        top = ", ".join(
            f"{key:#x}={count}" for key, count in ledger.hotspots(kind, 3)
        )
        table.add_footer(
            f"node load [{kind}]: {int(stats['total'])} over "
            f"{int(stats['nodes'])} nodes, max/mean {stats['max_mean']:.1f}x, "
            f"gini {stats['gini']:.2f}, top [{top}]"
        )


#: The oracle counters a sweep's cache footer sums over its points.
_CACHE_TALLIES = ("hits", "misses", "evictions", "dijkstra_runs", "batch_calls")


def add_sweep_cache_footer(
    table: "ResultTable", deltas: Iterable[Mapping[str, float]]
) -> None:
    """Sum a sweep's oracle-counter deltas (its points' and the shared
    warm-up's) into ``table``'s ``oracle cache (all points)`` footer, and
    mirror the totals into the active session for the run manifest."""
    deltas = list(deltas)
    totals = {k: sum((d.get(k, 0) for d in deltas), 0.0) for k in _CACHE_TALLIES}
    lookups = totals["hits"] + totals["misses"]
    totals["hit_rate"] = totals["hits"] / lookups if lookups else float("nan")
    table.add_cache_footer(totals, label="oracle cache (all points)")
    tel = active_telemetry()
    if tel is not None:
        record_cache_stats(tel.metrics, totals, ratios=("hit_rate",))


def format_float(x: Any, precision: int = 3) -> str:
    """Compact numeric formatting for table cells."""
    if isinstance(x, float):
        if x != x:  # NaN
            return "nan"
        if x == int(x) and abs(x) < 1e15:
            return str(int(x))
        return f"{x:.{precision}f}"
    return str(x)


@dataclasses.dataclass
class ResultTable:
    """A titled table of experiment results.

    Attributes
    ----------
    title:
        The table/figure it reproduces, e.g. ``"Figure 7(a)"``.
    columns:
        Column names, in display order.
    rows:
        One dict per row; missing cells render as ``""``.
    notes:
        Free-form caption lines (setup parameters, caveats).
    footers:
        Free-form lines rendered *after* the body — run observability
        (oracle cache counters, timings) as opposed to setup captions.
    """

    title: str
    columns: List[str]
    rows: List[Dict[str, Any]] = dataclasses.field(default_factory=list)
    notes: List[str] = dataclasses.field(default_factory=list)
    footers: List[str] = dataclasses.field(default_factory=list)

    def add_row(self, **cells: Any) -> None:
        """Append a row; unknown column names are rejected."""
        unknown = set(cells) - set(self.columns)
        if unknown:
            raise KeyError(f"unknown columns {sorted(unknown)}; declared {self.columns}")
        self.rows.append(dict(cells))

    def add_footer(self, line: str) -> None:
        """Append one observability line below the table body."""
        self.footers.append(line)

    def add_cache_footer(
        self, stats: Mapping[str, float], label: str = "oracle cache"
    ) -> None:
        """Append a :meth:`PathOracle.cache_stats` snapshot as a footer.

        Renders hits / misses (with the hit rate), evictions, and the
        number of Dijkstra runs with how many batched calls computed them.
        """
        hit_rate = stats.get("hit_rate", float("nan"))
        rate = "" if hit_rate != hit_rate else f" ({100.0 * hit_rate:.1f}% hit)"
        self.footers.append(
            f"{label}: {int(stats['hits'])} hits / {int(stats['misses'])} misses"
            f"{rate}, {int(stats['evictions'])} evictions, "
            f"{int(stats['dijkstra_runs'])} Dijkstra runs "
            f"({int(stats['batch_calls'])} batched calls)"
        )

    def column(self, name: str) -> List[Any]:
        """All values of one column (missing cells become ``None``)."""
        if name not in self.columns:
            raise KeyError(f"no column {name!r}")
        return [r.get(name) for r in self.rows]

    def row_where(self, column: str, value: Any) -> Dict[str, Any]:
        """The first row whose ``column`` equals ``value``."""
        for r in self.rows:
            if r.get(column) == value:
                return r
        raise KeyError(f"no row with {column}={value!r}")

    def render(self, precision: int = 3) -> str:
        """Fixed-width text rendering (what the benches print)."""
        header = [str(c) for c in self.columns]
        body = [
            [format_float(r.get(c, ""), precision) for c in self.columns]
            for r in self.rows
        ]
        widths = [
            max(len(header[i]), *(len(row[i]) for row in body)) if body else len(header[i])
            for i in range(len(header))
        ]
        lines = [f"== {self.title} =="]
        lines.extend("   " + note for note in self.notes)
        lines.append("  ".join(h.rjust(w) for h, w in zip(header, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for row in body:
            lines.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
        lines.extend("   " + footer for footer in self.footers)
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render()
