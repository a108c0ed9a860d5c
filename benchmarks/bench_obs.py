"""Observability benchmark: quantile-sketch accuracy and hotspot trajectory.

Three sections feed ``BENCH_obs.json``:

* ``accuracy`` — the :class:`repro.sim.metrics.QuantileSketch` against
  the exact NumPy oracle at 10^6 samples across uniform / Zipf-like /
  bimodal inputs: relative error at p50/p99/p999 (gate: deterministic,
  bounded by the sketch's design accuracy) and the bucket count (the
  O(1)-memory claim — it must not scale with the sample count);
* ``hotspot`` — per-overlay Gini and max/mean hotspot ratios from the
  quick-scale ``ext-hotspot`` experiment (fully deterministic; any drift
  is a behaviour change, not noise);
* ``throughput`` — sketch observe/merge and ledger scatter-add rates
  (informational; scaled by ``--scale`` and never gated).

The ``accuracy`` and ``hotspot`` sections use **fixed** sizes regardless
of ``--scale`` so a quick CI run reproduces the committed repo-root
baseline exactly; only ``throughput`` scales.

Run directly: ``PYTHONPATH=src python benchmarks/bench_obs.py
[--scale quick|full] [--sanitize]``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time
from typing import Dict, List, Optional

import numpy as np

RESULTS_DIR = pathlib.Path(__file__).resolve().parent / "results"
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro import sanitize  # noqa: E402
from repro.experiments.ext_hotspot import HotspotParams, run_hotspot_load  # noqa: E402
from repro.sim.metrics import QuantileSketch  # noqa: E402
from repro.sim.nodestats import NodeLoadLedger  # noqa: E402
from repro.sim.rng import derive_seed  # noqa: E402

#: Samples for the accuracy section — fixed (never scaled) so the
#: committed baseline reproduces anywhere; 10^6 per the acceptance bar.
ACCURACY_SAMPLES = 1_000_000

#: (throughput samples, ledger events) per scale.
SCALES = {
    "quick": (200_000, 100_000),
    "full": (2_000_000, 1_000_000),
}

#: Deterministic sample families for the accuracy section (name → draw).
#: A seeded generator makes every committed number reproducible.
DISTRIBUTIONS = ("uniform", "zipf", "bimodal")


def _draw(name: str, n: int, seed: int) -> np.ndarray:
    """Deterministic sample set for one accuracy family."""
    gen = np.random.default_rng(seed)
    if name == "uniform":
        return gen.uniform(0.5, 1000.0, n)
    if name == "zipf":
        # Heavy tail via inverse-CDF over a bounded Zipf rank table —
        # the shape discovery-hop and detour-cost latencies actually have.
        ranks = np.arange(1, 10_001, dtype=np.float64)
        weights = ranks**-1.2
        cdf = np.cumsum(weights) / weights.sum()
        return ranks[np.searchsorted(cdf, gen.random(n), side="right")]
    if name == "bimodal":
        # 45/55 split keeps the gated quantiles (p50/p99/p999) inside a
        # mode: at the exact inter-mode density gap NumPy's *interpolated*
        # percentile is far from every sample, so no rank-based estimator
        # (sketch or nearest-rank) can match it there.
        n_fast = int(n * 0.45)
        fast = gen.normal(1.0, 0.05, n_fast)
        slow = gen.normal(50.0, 5.0, n - n_fast)
        both = np.abs(np.concatenate([fast, slow])) + 1e-6
        gen.shuffle(both)
        return both
    raise ValueError(f"unknown distribution {name!r}")


def bench_accuracy(seed: int = 61) -> Dict[str, Dict[str, object]]:
    """Sketch-vs-oracle relative error and memory at 10^6 samples."""
    out: Dict[str, Dict[str, object]] = {}
    for name in DISTRIBUTIONS:
        data = _draw(name, ACCURACY_SAMPLES, derive_seed(seed, name))
        sk = QuantileSketch()
        t0 = time.perf_counter()
        sk.observe_many(data)
        observe_s = time.perf_counter() - t0
        entry: Dict[str, object] = {
            "samples": ACCURACY_SAMPLES,
            "bucket_count": sk.bucket_count,
            "observe_mps": round(ACCURACY_SAMPLES / observe_s / 1e6, 2),
        }
        for label, q in (("p50", 50.0), ("p99", 99.0), ("p999", 99.9)):
            exact = float(np.percentile(data, q))
            est = sk.quantile(q)
            entry[f"rel_err_{label}"] = round(abs(est - exact) / abs(exact), 6)
        out[name] = entry
    return out


def bench_hotspot() -> Dict[str, Dict[str, float]]:
    """Deterministic per-overlay hotspot stats from ``ext-hotspot``."""
    table = run_hotspot_load(HotspotParams.quick_scale())
    out: Dict[str, Dict[str, float]] = {}
    for row in table.rows:
        out[str(row["overlay"])] = {
            "gini": round(float(row["gini"]), 6),
            "max_mean": round(float(row["max/mean"]), 6),
            "top1_share": round(float(row["top-1 share (%)"]), 6),
        }
    return out


def bench_throughput(samples: int, events: int, seed: int = 67) -> Dict[str, object]:
    """Observe/merge/scatter rates (informational, scale-dependent)."""
    gen = np.random.default_rng(seed)
    data = gen.lognormal(0.0, 1.5, samples)
    sk = QuantileSketch()
    t0 = time.perf_counter()
    sk.observe_many(data)
    observe_s = time.perf_counter() - t0

    parts: List[QuantileSketch] = []
    for chunk in np.array_split(data, 8):
        part = QuantileSketch()
        part.observe_many(chunk)
        parts.append(part)
    merged = QuantileSketch()
    t0 = time.perf_counter()
    for part in parts:
        merged.merge(part)
    merge_s = time.perf_counter() - t0
    assert merged.state_equal(sk), "merged sketch diverged from single-pass"

    ledger = NodeLoadLedger()
    keys = gen.integers(0, 4096, size=events)
    t0 = time.perf_counter()
    ledger.add_many("routed", keys.tolist())
    ledger.total("routed")  # the read folds the pending charges
    ledger_s = time.perf_counter() - t0

    return {
        "samples": samples,
        "sketch_observe_mps": round(samples / observe_s / 1e6, 2),
        "sketch_merge_s": round(merge_s, 6),
        "ledger_events": events,
        "ledger_adds_mps": round(events / ledger_s / 1e6, 2),
    }


def main(argv: Optional[List[str]] = None) -> int:
    """Run the benchmark and write BENCH_obs.{json,txt}."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scale", choices=sorted(SCALES), default="full",
        help="scales the throughput section only; accuracy and hotspot "
        "sections are fixed-size (deterministic, baseline-comparable)",
    )
    parser.add_argument(
        "--sanitize", action="store_true",
        help="enable the runtime sanitizer during the hotspot experiment",
    )
    args = parser.parse_args(argv)
    if args.sanitize:
        sanitize.set_enabled(True)
    samples, events = SCALES[args.scale]

    print("accuracy: sketch vs exact oracle at 10^6 samples ...", flush=True)
    accuracy = bench_accuracy()
    print("hotspot: deterministic ext-hotspot trajectory ...", flush=True)
    hotspot = bench_hotspot()
    print(f"throughput: {samples} samples / {events} ledger events ...", flush=True)
    throughput = bench_throughput(samples, events)

    payload = {
        "benchmark": "obs",
        "scale": args.scale,
        "sanitize": bool(args.sanitize),
        "python": sys.version.split()[0],
        "accuracy": accuracy,
        "hotspot": hotspot,
        "throughput": throughput,
    }

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_obs.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )

    lines = [
        f"Observability benchmark (scale={args.scale})",
        "",
        f"  {'distribution':<10} {'rel p50':>9} {'rel p99':>9} "
        f"{'rel p999':>9} {'buckets':>8} {'Msamp/s':>8}",
    ]
    for name, r in accuracy.items():
        lines.append(
            f"  {name:<10} {r['rel_err_p50']:>9.4%} {r['rel_err_p99']:>9.4%} "
            f"{r['rel_err_p999']:>9.4%} {r['bucket_count']:>8} "
            f"{r['observe_mps']:>8.2f}"
        )
    lines.append("")
    lines.append(f"  {'overlay':<10} {'gini':>7} {'max/mean':>9} {'top-1':>7}")
    for name, h in hotspot.items():
        lines.append(
            f"  {name:<10} {h['gini']:>7.3f} {h['max_mean']:>9.2f} "
            f"{h['top1_share']:>6.1f}%"
        )
    lines.append("")
    lines.append(
        f"  throughput: sketch {throughput['sketch_observe_mps']}M obs/s, "
        f"ledger {throughput['ledger_adds_mps']}M adds/s"
    )
    text = "\n".join(lines)
    (RESULTS_DIR / "BENCH_obs.txt").write_text(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
