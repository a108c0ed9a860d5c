#!/usr/bin/env python3
"""Compare two bench_e2e result files (``bench_e2e.py --json``).

    compare.py A.json B.json

For every workload × end-to-end metric prints both medians, the relative
change of B with A as its base, and a verdict against the bound stored in
BENCHMARK.json:

``ok``          B's median is no worse than A's by more than the bound
``worse``       it is
``unresolved``  the run-to-run spread of either side (quartile distance ÷
                median) is wider than the bound, so the medians cannot
                tell — unless every run of B reads better than every run
                of A, which is ``ok``

Simulated-statistics digests, failed ops and the exact ``.calls`` counts
of traced runs must be identical across all runs of both files.  Exits 1
on any ``worse``, differing digest or count, or failed op.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def load(path: str) -> List[dict]:
    return json.loads(Path(path).read_text())["runs"]


def spread(values: List[float]) -> float:
    """Quartile distance as a share of the median (0 for a single run)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(a: List[float], b: List[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (statistics.median(b) - statistics.median(a)) / statistics.median(a)
    if max(spread(a), spread(b)) > bound:
        all_better = max(sign * v for v in b) < min(sign * v for v in a)
        return "ok" if all_better else "unresolved"
    return "worse" if worse_by > bound else "ok"


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    runs_a, runs_b = load(argv[0]), load(argv[1])
    bad = False
    workloads = [w["name"] for w in SPEC["workloads"]]
    print(f"{'workload':9} {'metric':24} {'A':>12} {'B':>12} {'B vs A':>9}"
          f" {'bound':>6}  verdict  (n, spread A / B)")
    for name in workloads:
        a_runs = [r for r in runs_a if r["workload"] == name and not r["trace"]]
        b_runs = [r for r in runs_b if r["workload"] == name and not r["trace"]]
        if not a_runs or not b_runs:
            continue
        for m in SPEC["end_to_end"]:
            a = [r["metrics"][m["name"]]["value"] for r in a_runs]
            b = [r["metrics"][m["name"]]["value"] for r in b_runs]
            med_a, med_b = statistics.median(a), statistics.median(b)
            v = verdict(a, b, m["better"], m["bound"])
            bad |= v == "worse"
            print(f"{name:9} {m['name']:24} {med_a:12.5g} {med_b:12.5g}"
                  f" {100 * (med_b - med_a) / med_a:+8.2f}% {100 * m['bound']:5.0f}%"
                  f"  {v:10} (base {med_a:.5g} {m['unit']};"
                  f" n={len(a)}/{len(b)}, {100 * spread(a):.1f}% / {100 * spread(b):.1f}%)")

    # Exact things: equal inputs (workload, seed, trace, blocks) must give
    # equal digests and equal counts, on either side and across them.
    seen: Dict[tuple, dict] = {}
    for r in runs_a + runs_b:
        if r["failed"]:
            bad = True
            print(f"FAILED OPS  {r['workload']} seed {r['seed']}:"
                  f" {r['failed']} of {r['attempted']}")
        key = (r["workload"], r["seed"], r["trace"], r["scale"], r["blocks"])
        first = seen.setdefault(key, r)
        if first["digest"] != r["digest"]:
            bad = True
            print(f"DIGEST DIFFERS  {key}: {first['digest']} vs {r['digest']}")
        if r["trace"]:
            for metric, entry in r["metrics"].items():
                if metric.endswith(".calls") and (
                    entry["value"] != first["metrics"][metric]["value"]
                ):
                    bad = True
                    print(f"COUNT DIFFERS  {key} {metric}:"
                          f" {first['metrics'][metric]['value']} vs {entry['value']}")
    print(f"{len(seen)} distinct (workload, seed, trace, scale, blocks) inputs:"
          f" {'NOT ACCEPTED' if bad else 'no metric worse, digests and counts equal'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
