"""Bench-trajectory comparator: current ``BENCH_*.json`` vs committed baseline.

The benchmark harnesses write machine-readable trajectories
(``benchmarks/results/BENCH_<family>.json``); the repo root commits
baseline copies of the families whose metrics are deterministic enough to
gate on.  This module diffs the two and emits a regression verdict::

    python -m repro.bench_report --results benchmarks/results --baseline . \
        --out bench_verdict.md --json bench_verdict.json --fail-on-regression

Every numeric leaf shared by both files is reported; only leaves matched
by a family's :data:`GATES` decide the verdict.  Gates are deliberately
restricted to *deterministic* metrics (sketch relative errors, bucket
counts, Gini coefficients, message reductions) — wall-clock timings are
shown as context, never gated, so the check is stable on shared CI
runners.  A family present on one side only is informational, not a
failure: new trajectories start ungated and graduate when a baseline is
committed.
"""

from __future__ import annotations

import argparse
import dataclasses
import fnmatch
import json
import math
import os
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "GATES",
    "Gate",
    "MetricRow",
    "compare_family",
    "discover_benchmarks",
    "flatten_numeric",
    "render_markdown",
    "build_verdict",
    "main",
]

#: Ignore absolute drifts below this when judging ``lower`` gates, so a
#: metric whose baseline is ~0 cannot fail on float dust.
ABS_EPS = 1e-9


@dataclasses.dataclass(frozen=True)
class Gate:
    """One gated metric family pattern.

    ``pattern`` is an :mod:`fnmatch` glob over dotted metric paths.
    ``direction`` is ``"lower"`` (bigger is a regression), ``"higher"``
    (smaller is a regression) or ``"equal"`` (any drift beyond tolerance
    is a regression — for metrics that are deterministic by construction).
    ``tolerance`` is relative to the baseline value.
    """

    pattern: str
    direction: str
    tolerance: float


#: Gated metrics per benchmark family.  Only deterministic quantities:
#: accuracy/structure of the quantile sketch and hotspot statistics
#: (``obs``), message-count reductions (``batch``) and the LDT kernel's
#: fixed-size structure section (``ldt`` — oracle-parity counts and the
#: canonical edge-order checksum).  Timing families (``churn``,
#: ``sweep``) and the ``ldt`` speedup section stay informational.
GATES: Dict[str, Tuple[Gate, ...]] = {
    "obs": (
        Gate("accuracy.*.rel_err_*", "lower", 0.10),
        Gate("accuracy.*.bucket_count", "lower", 0.10),
        Gate("hotspot.*.gini", "equal", 1e-6),
        Gate("hotspot.*.max_mean", "equal", 1e-6),
    ),
    "batch": (
        Gate("per_k.*.reduction", "higher", 0.25),
        Gate("per_k.*.batched_msgs", "lower", 0.25),
    ),
    "ldt": (
        Gate("structure.*", "equal", 1e-9),
    ),
}


@dataclasses.dataclass
class MetricRow:
    """One compared metric: values on both sides plus the gate outcome."""

    path: str
    baseline: float
    current: float
    status: str  # "ok" | "regressed" | "info"

    @property
    def delta_pct(self) -> float:
        """Relative change in percent (NaN when the baseline is ~0)."""
        if abs(self.baseline) < ABS_EPS:
            return math.nan
        return 100.0 * (self.current - self.baseline) / abs(self.baseline)


def flatten_numeric(payload: Any, prefix: str = "") -> Dict[str, float]:
    """Flatten nested JSON into ``{dotted.path: value}`` for numeric leaves.

    Booleans and strings are skipped; lists are indexed numerically.
    """
    out: Dict[str, float] = {}
    if isinstance(payload, Mapping):
        items: Iterable[Tuple[str, Any]] = (
            (str(k), v) for k, v in payload.items()
        )
    elif isinstance(payload, list):
        items = ((str(i), v) for i, v in enumerate(payload))
    else:
        items = ()
    for key, value in items:
        path = f"{prefix}.{key}" if prefix else key
        if isinstance(value, bool):
            continue
        if isinstance(value, (int, float)):
            if isinstance(value, float) and not math.isfinite(value):
                continue
            out[path] = float(value)
        elif isinstance(value, (Mapping, list)):
            out.update(flatten_numeric(value, path))
    return out


def _gate_for(family: str, path: str) -> Optional[Gate]:
    for gate in GATES.get(family, ()):
        if fnmatch.fnmatchcase(path, gate.pattern):
            return gate
    return None


def _judge(gate: Gate, baseline: float, current: float) -> str:
    if gate.direction == "lower":
        limit = baseline * (1.0 + gate.tolerance) + ABS_EPS
        return "regressed" if current > limit else "ok"
    if gate.direction == "higher":
        limit = baseline * (1.0 - gate.tolerance) - ABS_EPS
        return "regressed" if current < limit else "ok"
    if gate.direction == "equal":
        drift = abs(current - baseline)
        return (
            "regressed"
            if drift > gate.tolerance * max(1.0, abs(baseline))
            else "ok"
        )
    raise ValueError(f"unknown gate direction {gate.direction!r}")


def compare_family(
    family: str, baseline: Mapping[str, Any], current: Mapping[str, Any]
) -> List[MetricRow]:
    """Compare one family's trajectories; returns every shared metric.

    Gated paths get an ok/regressed status; everything else is ``info``.
    Rows are sorted gated-first, then by path, so the verdict table leads
    with what matters.
    """
    base_flat = flatten_numeric(baseline)
    cur_flat = flatten_numeric(current)
    rows: List[MetricRow] = []
    for path in sorted(set(base_flat) & set(cur_flat)):
        gate = _gate_for(family, path)
        if gate is None:
            status = "info"
        else:
            status = _judge(gate, base_flat[path], cur_flat[path])
        rows.append(MetricRow(path, base_flat[path], cur_flat[path], status))
    rows.sort(key=lambda r: (r.status == "info", r.path))
    return rows


def discover_benchmarks(directory: str) -> Dict[str, Dict[str, Any]]:
    """Load every ``BENCH_<family>.json`` under ``directory``."""
    found: Dict[str, Dict[str, Any]] = {}
    if not os.path.isdir(directory):
        return found
    for name in sorted(os.listdir(directory)):
        if not (name.startswith("BENCH_") and name.endswith(".json")):
            continue
        family = name[len("BENCH_"):-len(".json")]
        with open(os.path.join(directory, name)) as fh:
            try:
                found[family] = json.load(fh)
            except json.JSONDecodeError as exc:
                raise SystemExit(f"{name}: not valid JSON ({exc})")
    return found


def build_verdict(
    results_dir: str, baseline_dir: str
) -> Tuple[Dict[str, Any], Dict[str, List[MetricRow]]]:
    """Compare every family; returns (JSON verdict, per-family rows)."""
    current = discover_benchmarks(results_dir)
    baseline = discover_benchmarks(baseline_dir)
    families: Dict[str, Any] = {}
    per_family_rows: Dict[str, List[MetricRow]] = {}
    regressions: List[str] = []
    for family in sorted(set(current) | set(baseline)):
        if family not in current:
            families[family] = {"status": "baseline-only", "metrics": 0}
            continue
        if family not in baseline:
            families[family] = {"status": "no-baseline", "metrics": 0}
            continue
        rows = compare_family(family, baseline[family], current[family])
        per_family_rows[family] = rows
        bad = [r.path for r in rows if r.status == "regressed"]
        regressions.extend(f"{family}:{p}" for p in bad)
        families[family] = {
            "status": "regressed" if bad else "ok",
            "metrics": len(rows),
            "gated": sum(1 for r in rows if r.status != "info"),
            "regressed_paths": bad,
        }
    verdict = {
        "kind": "repro-bench-verdict",
        "ok": not regressions,
        "families": families,
        "regressions": regressions,
    }
    return verdict, per_family_rows


def render_markdown(
    verdict: Mapping[str, Any], per_family_rows: Mapping[str, List[MetricRow]]
) -> str:
    """Render the verdict as a markdown report (the CI artifact)."""
    lines = ["# Bench trajectory report", ""]
    lines.append(
        "**Verdict: PASS**" if verdict["ok"] else "**Verdict: REGRESSED**"
    )
    lines.append("")
    for family, info in verdict["families"].items():
        lines.append(f"## {family} — {info['status']}")
        lines.append("")
        rows = per_family_rows.get(family, [])
        if not rows:
            lines.append(
                "_no comparison (missing on one side); informational only_"
            )
            lines.append("")
            continue
        lines.append("| metric | baseline | current | delta | status |")
        lines.append("|---|---:|---:|---:|---|")
        for r in rows:
            delta = (
                "n/a" if math.isnan(r.delta_pct) else f"{r.delta_pct:+.1f}%"
            )
            lines.append(
                f"| `{r.path}` | {r.baseline:.6g} | {r.current:.6g} "
                f"| {delta} | {r.status} |"
            )
        lines.append("")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench_report",
        description="Compare BENCH_*.json trajectories against a baseline.",
    )
    parser.add_argument(
        "--results",
        default="benchmarks/results",
        help="directory with freshly produced BENCH_*.json files",
    )
    parser.add_argument(
        "--baseline",
        default=".",
        help="directory with committed baseline BENCH_*.json files",
    )
    parser.add_argument("--out", default=None, help="write markdown report here")
    parser.add_argument("--json", default=None, help="write JSON verdict here")
    parser.add_argument(
        "--fail-on-regression",
        action="store_true",
        help="exit 1 when any gated metric regressed",
    )
    args = parser.parse_args(argv)
    verdict, rows = build_verdict(args.results, args.baseline)
    markdown = render_markdown(verdict, rows)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(markdown + "\n")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(verdict, fh, indent=2, sort_keys=True)
            fh.write("\n")
    print(markdown)
    if args.fail_on_regression and not verdict["ok"]:
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
