"""Churn benchmark: incremental repair vs full rebuild, per overlay.

For every substrate this times the per-event cost of absorbing one
membership change two ways:

* **full rebuild** — the overlay's one full build, ``build(keys)``, over
  all N members;
* **incremental** — the targeted ``_on_add``/``_on_remove`` repair path
  driven through ``add_node``/``remove_node`` over a seeded alternating
  leave/join schedule.

It writes

* ``benchmarks/results/BENCH_churn.json`` — machine-readable timings;
  the CI gate reads ``per_overlay.<name>.speedup`` (≥ 5x per event on
  every overlay, from an unsanitized ``--scale quick`` run);
* ``benchmarks/results/BENCH_churn.txt`` — the human summary.

Run directly: ``PYTHONPATH=src python benchmarks/bench_churn.py
[--scale quick|full] [--sanitize]``.  ``--sanitize`` turns on the
runtime sanitizer and checks overlay consistency after every incremental
event (checks are read-only, so timings degrade but results do not
change; the sanitized run exists to prove the incremental path keeps the
invariants, not to be fast).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time
from typing import Dict, List, Optional

RESULTS_DIR = pathlib.Path(__file__).resolve().parent / "results"
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro import sanitize  # noqa: E402
from repro.overlay.factory import OVERLAY_NAMES, make_overlay  # noqa: E402
from repro.overlay.keyspace import KeySpace  # noqa: E402
from repro.sim.metrics import MetricsRegistry  # noqa: E402
from repro.sim.rng import RngStreams  # noqa: E402

#: (num_nodes, churn events timed, full rebuilds timed) per scale.
SCALES = {
    "quick": (512, 60, 5),
    "full": (4096, 200, 5),
}


def _churn_schedule(
    space: KeySpace, rng: RngStreams, members: List[int], events: int
) -> List[tuple]:
    """Alternating (op, key) schedule: leave a member, join a fresh key."""
    taken = set(members)
    joiners = [
        int(k)
        for k in space.random_keys(rng, "bench.joiners", events)
        if int(k) not in taken
    ]
    gen = rng.stream("bench.schedule")
    pool = sorted(members)
    schedule: List[tuple] = []
    for i in range(events):
        if i % 2 == 0 and len(pool) > 2:
            victim = pool.pop(int(gen.integers(len(pool))))
            schedule.append(("remove", victim))
        elif joiners:
            newcomer = joiners.pop()
            schedule.append(("add", newcomer))
            pool.append(newcomer)
            pool.sort()
    return schedule


def bench_overlay(
    name: str,
    num_nodes: int,
    events: int,
    rebuilds: int,
    *,
    seed: int = 53,
    sanitized: bool = False,
) -> Dict[str, object]:
    """Time one overlay; returns the JSON fragment for ``per_overlay``."""
    space = KeySpace(bits=32, digit_bits=4)
    rng = RngStreams(seed)
    keys = [int(k) for k in space.random_keys(rng, "bench.members", num_nodes)]

    # Full-rebuild baseline: what absorbing one event by rebuilding the
    # whole membership would cost (best of ``rebuilds`` builds).
    overlay = make_overlay(name, space)
    rebuild_times = []
    for _ in range(rebuilds):
        t0 = time.perf_counter()
        overlay.build(keys)
        rebuild_times.append(time.perf_counter() - t0)
    full_per_event = min(rebuild_times)

    # Incremental path: the built overlay absorbs a seeded churn schedule.
    metrics = MetricsRegistry()
    overlay.bind_metrics(metrics)
    schedule = _churn_schedule(space, rng, keys, events)
    t0 = time.perf_counter()
    for op, key in schedule:
        if op == "remove":
            overlay.remove_node(key)
        else:
            overlay.add_node(key)
        if sanitized:
            sanitize.check_overlay_consistency(overlay, key)
    incremental_s = time.perf_counter() - t0
    incr_per_event = incremental_s / max(len(schedule), 1)
    repaired = metrics.counter("overlay.repaired_nodes").value

    return {
        "num_nodes": num_nodes,
        "events": len(schedule),
        "full_rebuild_per_event_s": round(full_per_event, 6),
        "incremental_per_event_s": round(incr_per_event, 9),
        "repaired_nodes_per_event": round(repaired / max(len(schedule), 1), 3),
        "speedup": round(full_per_event / incr_per_event, 1)
        if incr_per_event
        else None,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scale", choices=sorted(SCALES), default="full",
        help="quick: N=512 smoke run; full: N=4096 acceptance run",
    )
    parser.add_argument(
        "--sanitize", action="store_true",
        help="enable the runtime sanitizer and check overlay consistency "
        "after every incremental event",
    )
    parser.add_argument(
        "--overlays", nargs="*", default=list(OVERLAY_NAMES),
        help="subset of overlays to benchmark",
    )
    args = parser.parse_args(argv)
    if args.sanitize:
        sanitize.set_enabled(True)
    num_nodes, events, rebuilds = SCALES[args.scale]

    per_overlay: Dict[str, Dict[str, object]] = {}
    for name in args.overlays:
        print(f"benchmarking {name} (N={num_nodes}, {events} events) ...", flush=True)
        per_overlay[name] = bench_overlay(
            name, num_nodes, events, rebuilds, sanitized=args.sanitize
        )

    payload = {
        "benchmark": "churn",
        "scale": args.scale,
        "num_nodes": num_nodes,
        "sanitize": bool(args.sanitize),
        "python": sys.version.split()[0],
        "per_overlay": per_overlay,
    }
    if args.sanitize:
        payload["sanitize_checks"] = sanitize.counts().get("overlay", 0)

    RESULTS_DIR.mkdir(exist_ok=True)
    json_path = RESULTS_DIR / "BENCH_churn.json"
    json_path.write_text(json.dumps(payload, indent=2) + "\n")

    lines = [
        f"Churn benchmark — incremental repair vs full rebuild "
        f"(N={num_nodes}, scale={args.scale})",
        "",
        f"  {'overlay':<10} {'rebuild/evt':>12} {'incr/evt':>12} "
        f"{'repair/evt':>11} {'speedup':>9}",
    ]
    for name, r in per_overlay.items():
        lines.append(
            f"  {name:<10} {r['full_rebuild_per_event_s']:>11.4f}s "
            f"{r['incremental_per_event_s'] * 1e3:>10.3f}ms "
            f"{r['repaired_nodes_per_event']:>11.1f} {r['speedup']:>8.1f}x"
        )
    if args.sanitize:
        lines.append("")
        lines.append(f"  sanitizer: {payload['sanitize_checks']} overlay checks, 0 violations")
    text = "\n".join(lines)
    (RESULTS_DIR / "BENCH_churn.txt").write_text(text + "\n")
    print("\n" + text)
    print(f"\n[written to {json_path}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
