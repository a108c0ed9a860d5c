#!/usr/bin/env python3
"""bench_e2e — the repo's benchmark: the public ``BristleNetwork`` path.

A closed loop of one client in one process drives only public entry
points (``BristleNetwork(...)``, ``setup_random_registrations``,
``prewarm_oracle``, ``move``, ``move_many``, ``discover``,
``join_mobile_node``, ``leave_mobile_node``, ``advance_time``,
``net.directory.expire_leases``, ``repro.route_with_resolution``) and
reports host time and host memory of the simulator; the simulated
statistics every call returns are the correctness check.

    bench_e2e.py --workload NAME --seed N --seconds S --trace 0|1

prints one ``workload metric value unit`` line per metric named in
BENCHMARK.json and, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` (the default)
gives the end-to-end metrics, ``--trace 1`` the per-layer ones from a
traced run (see spans.py).  README.md has the rest.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
import types
from array import array
from pathlib import Path
from typing import Callable, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402

import repro  # noqa: E402
from repro import BristleConfig, BristleNetwork, route_with_resolution  # noqa: E402
from repro.sim.nodestats import KINDS as LEDGER_KINDS  # noqa: E402

from spans import SpanRecorder, tracing  # noqa: E402
from workloads import GROUP_SIZE, WORKLOADS, OpStream, Workload, smoke  # noqa: E402

if ROOT / "src" not in Path(repro.__file__).resolve().parents:
    raise ImportError(f"measuring {repro.__file__}, not the program in {ROOT / 'src'}")

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXPECTED_PATH = HERE / "expected.json"
RESULTS = HERE / "results"

#: blocks a traced run executes: all of ``build``, the first half of a
#: steady run at ``run_seconds``
TRACE_BLOCKS = 5

#: public op class -> the span its calls are recorded under when traced
SPAN_OF = {
    "move": "core.bristle.move",
    "move_many": "core.bristle.move_many",
    "discover": "core.bristle.discover",
    "route": "core.routing.route_with_resolution",
    "join": "core.bristle.join",
    "leave": "core.bristle.leave",
    "tick": "core.bristle.tick",
}
CLASSES = tuple(SPAN_OF)
SUMS = (
    "move.messages", "move.ldt_depth", "move_many.messages",
    "move_many.multicast_hops", "discover.hops", "route.app_hops",
    "route.resolutions", "route.path_cost_micro", "expired",
)


def _unwrapped(name: str, fn: Callable) -> Callable:
    return fn


def set_up(workload: Workload, seed: int, wrap: Callable = _unwrapped):
    """Build the network under test; returns ``(net, seconds)``."""
    config = BristleConfig(
        seed=seed, mobile_layer_overlay="chord", stationary_layer_overlay="pastry"
    )
    t0 = time.perf_counter()
    net = wrap("core.bristle.init", BristleNetwork)(
        config, workload.stationary, workload.mobile
    )
    wrap(
        "core.bristle.setup_random_registrations", net.setup_random_registrations
    )()
    if workload.prewarm:
        wrap("core.bristle.prewarm_oracle", net.prewarm_oracle)()
    return net, time.perf_counter() - t0


class Harness:
    """Drives one network with one workload's op stream.

    Times every public call on its own (so rates are ops ÷ time busy
    inside the API), checks every result against what the harness's own
    op list implies, and folds the simulated statistics into sums — all
    outside the per-call timers.  Keeps no per-op results, only one
    duration per call.

    GC stays enabled, but when a collection runs is set by every
    allocation since the last one, not by the call it interrupts: a
    handful of 60-200 ms full collections per run moved whichever class
    they fell on by 6-36 %, a different one on each seed.  So a pause is
    taken out of the interrupted call's duration and charged to
    ``ops_per_s`` alone (``paused_ns``).
    """

    def __init__(self, workload: Workload, seed: int, net,
                 wrap: Callable = _unwrapped) -> None:
        self.net = net
        self.stream = OpStream(workload, seed, net.stationary_keys, net.mobile_keys)
        self.durations = {c: array("q") for c in CLASSES}  # ns per call
        self.paused_ns = 0  # collector pauses inside timed calls
        self._gc_ns = 0  # all collector pauses while a block ran
        self._gc_t0 = 0
        self.blocks = 0
        self.attempted = 0
        self.failed = 0
        self.first_failure: Optional[str] = None
        self._handlers = {c: getattr(self, "_" + c) for c in CLASSES}
        self.ttl = net.config.state_ttl
        self.now = 0.0
        self.address = {k: net.nodes[k].address for k in net.mobile_keys}
        self.published = dict.fromkeys(net.mobile_keys, 0.0)
        self.sums = dict.fromkeys(SUMS, 0)

        def tick(dt: float):
            net.advance_time(dt)
            return net.directory.expire_leases(net.now)

        calls = {
            "move": net.move,
            "move_many": net.move_many,
            "discover": net.discover,
            "route": route_with_resolution,
            "join": net.join_mobile_node,
            "leave": net.leave_mobile_node,
            "tick": tick,
        }
        self.api = types.SimpleNamespace(
            **{cls: wrap(SPAN_OF[cls], fn) for cls, fn in calls.items()}
        )

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_t0 = time.perf_counter_ns()
        else:
            self._gc_ns += time.perf_counter_ns() - self._gc_t0

    def _timed(self, cls: str, *args):
        """One public call, its duration recorded less collector pauses."""
        fn = getattr(self.api, cls)
        gc0 = self._gc_ns
        t0 = time.perf_counter_ns()
        result = fn(*args)
        t1 = time.perf_counter_ns()
        paused = self._gc_ns - gc0
        self.durations[cls].append(t1 - t0 - paused)
        self.paused_ns += paused
        return result

    # Each handler returns whether the op's output was what it had to be.
    def _move(self, key: int) -> bool:
        report = self._timed("move", key)
        self.address[key] = report.new_address
        self.published[key] = self.now
        self.sums["move.messages"] += report.total_messages
        self.sums["move.ldt_depth"] += report.ldt_depth
        return True

    def _move_many(self, keys) -> bool:
        report = self._timed("move_many", keys)
        self.address.update(report.new_addresses)
        for k in keys:
            self.published[k] = self.now
        self.sums["move_many.messages"] += report.total_messages
        self.sums["move_many.multicast_hops"] += report.multicast_hops
        return sorted(report.new_addresses) == sorted(keys)

    def _discover(self, source: int, target: int) -> bool:
        result = self._timed("discover", source, target)
        self.sums["discover.hops"] += result.hop_count
        # The rule of LocationRecord.fresh, from the harness's own op list.
        fresh = self.now <= self.published[target] + self.ttl
        return result.address == (self.address[target] if fresh else None)

    def _route(self, source: int, target: int) -> bool:
        trace = self._timed("route", self.net, source, target)
        self.sums["route.app_hops"] += trace.app_hops
        self.sums["route.resolutions"] += trace.resolutions
        self.sums["route.path_cost_micro"] += round(trace.path_cost * 1e6)
        return trace.success

    def _leave(self, key: int) -> bool:
        self._timed("leave", key)
        del self.address[key], self.published[key]
        return True

    def _join(self, key: int, capacity: float) -> bool:
        node = self._timed("join", key, capacity)
        self.address[key] = node.address
        self.published[key] = self.now
        return True

    def _tick(self, dt: float) -> bool:
        expired = self._timed("tick", dt)
        self.now += dt
        self.sums["expired"] += len(expired)
        return True

    def fail(self, why: str) -> None:
        self.failed += 1
        if self.first_failure is None:
            self.first_failure = why

    def run_block(self) -> None:
        ops = self.stream.block()
        gc.callbacks.append(self._on_gc)
        try:
            for op in ops:
                self.attempted += 1
                try:
                    if not self._handlers[op[0]](*op[1:]):
                        self.fail(f"{op!r} returned an unexpected result")
                except Exception:
                    self.fail(f"{op!r} raised:\n{traceback.format_exc()}")
        finally:
            gc.callbacks.remove(self._on_gc)
        self.blocks += 1

    def run_blocks(self, blocks: int) -> None:
        for _ in range(blocks):
            self.run_block()

    @property
    def busy_ns(self) -> int:
        """Time inside the public API, collector pauses included."""
        return sum(sum(d) for d in self.durations.values()) + self.paused_ns

    def digest(self) -> str:
        """Simulated statistics of everything run on the attached network,
        as one hash.  A perf or simplicity change must leave it
        bit-identical."""
        snapshot = hashlib.sha256(repr(self.net.directory.snapshot()).encode())
        state = (sorted(self.sums.items()), len(self.net.nodes), snapshot.hexdigest())
        return hashlib.sha256(repr(state).encode()).hexdigest()[:16]

    # ------------------------------------------------------------------
    # Reduction
    # ------------------------------------------------------------------
    def rate(self, classes, weight: int = 1) -> float:
        """Calls of ``classes`` (× ``weight``) ÷ their pause-free busy time."""
        calls = sum(len(self.durations[c]) for c in classes)
        return weight * calls / (sum(sum(self.durations[c]) for c in classes) / 1e9)

    def latency_us(self, cls: str, q: float) -> float:
        return float(np.quantile(np.asarray(self.durations[cls]), q)) / 1e3


def end_to_end(harness: Harness, setup_s: float) -> Dict[str, float]:
    """The end-to-end metrics of one untraced run."""
    return {
        "setup_s": setup_s,
        "ops_per_s": sum(map(len, harness.durations.values())) / (harness.busy_ns / 1e9),
        "update_per_s": harness.rate(("move",)),
        "update_many_keys_per_s": harness.rate(("move_many",), GROUP_SIZE),
        "discover_per_s": harness.rate(("discover",)),
        "route_per_s": harness.rate(("route",)),
        "membership_per_s": harness.rate(("join", "leave")),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(plain: Harness, traced: Harness, rec: SpanRecorder, setup_s: float,
              wall_s: float) -> Dict[str, float]:
    """Every per-layer value one traced run can give, by metric name."""
    values: Dict[str, float] = dict(rec.tallies)
    for name, entry in rec.by_name().items():
        values[name + ".calls"] = entry["calls"]
        values[name + ".self_s"] = entry["self_s"]
    for cls, span in SPAN_OF.items():
        values[span + ".p50_us"] = plain.latency_us(cls, 0.5)
        values[span + ".p99_us"] = plain.latency_us(cls, 0.99)
    values["core.routing.route_with_resolution.resolutions"] = traced.sums[
        "route.resolutions"
    ]
    first_probes = values.get("core.location.resolve_at.calls", 0)
    values["core.location.resolve_fallback_share"] = (
        values.get("core.location.resolve.calls", 0) / first_probes
        if first_probes else 0.0
    )
    net = traced.net
    oracle = net.oracle.cache_stats()
    values["net.shortest_path.dijkstra_runs"] = oracle["dijkstra_runs"]
    values["net.shortest_path.hit_rate"] = (
        oracle["hit_rate"] if math.isfinite(oracle["hit_rate"]) else 0.0
    )
    metrics = net.telemetry.metrics
    values["overlay.chord.repaired_nodes"] = metrics.counter(
        "overlay.repaired_nodes"
    ).value
    ledger = net.telemetry.nodeload
    values["sim.telemetry.ledger_events"] = sum(ledger.total(k) for k in LEDGER_KINDS)
    values["sim.telemetry.metric_samples"] = sum(
        len(h) for h in metrics.histograms.values()
    )
    values["trace.ops"] = traced.attempted
    values["trace.wall_s"] = wall_s
    values["trace.spans"] = len(rec)
    values["trace.overhead_ratio"] = traced.busy_ns / plain.busy_ns
    reported = sum(
        values.get(m["name"], 0.0) for m in SPEC["per_layer"]
        if m["name"].endswith(".self_s")
    )
    values["trace.self_s_share"] = reported / (setup_s + traced.busy_ns / 1e9)
    return values


# ----------------------------------------------------------------------
# One run, in this process
# ----------------------------------------------------------------------
def run_untraced(workload: Workload, seed: int, blocks: int):
    """One timed set-up, then ``blocks`` blocks of the workload's mix."""
    net, setup_s = set_up(workload, seed)
    harness = Harness(workload, seed, net)
    harness.run_blocks(blocks)
    return harness, end_to_end(harness, setup_s)


def run_traced(workload: Workload, seed: int, blocks: int = TRACE_BLOCKS,
               trace_path: Optional[Path] = None):
    """Untraced reference blocks, then the same blocks with spans on.

    The program's own ``Tracer`` stays disabled in both (enabling it
    changes what ``move`` does).
    """
    plain = Harness(workload, seed, set_up(workload, seed)[0])
    plain.run_blocks(blocks)
    plain_digest = plain.digest()
    plain.net = plain.api = None  # the network holds reference cycles:
    gc.collect()  # collect it, or it sits beside the traced one

    rec = SpanRecorder()
    with tracing(rec):
        t0 = time.perf_counter()
        net, setup_s = set_up(workload, seed, rec.wrap)
        traced = Harness(workload, seed, net, rec.wrap)
        traced.run_blocks(blocks)
        wall_s = time.perf_counter() - t0
    if trace_path is not None:
        trace_path.parent.mkdir(exist_ok=True)
        rec.write(trace_path)
    values = per_layer(plain, traced, rec, setup_s, wall_s)
    if traced.digest() != plain_digest:
        traced.fail("tracing changed the simulated statistics")
    traced.attempted += plain.attempted
    traced.failed += plain.failed
    traced.first_failure = plain.first_failure or traced.first_failure
    return traced, values, rec


def expected_digest(workload: str, seed: int, blocks: int) -> Optional[str]:
    """The committed digest for this run, or None when there is none."""
    expected = json.loads(EXPECTED_PATH.read_text())
    return expected.get(workload, {}).get(str(seed), {}).get(str(blocks))


def run_one(args) -> int:
    """Run one workload here; print its metrics and the result line."""
    workload = WORKLOADS[args.workload]
    if args.scale == "smoke":
        workload = smoke(workload)
    if args.trace:
        harness, values, _ = run_traced(
            workload, args.seed, trace_path=RESULTS / f"trace-{workload.name}.json"
        )
        wanted = SPEC["per_layer"]
    else:
        harness, values = run_untraced(
            workload, args.seed, workload.blocks or max(1, int(args.seconds))
        )
        wanted = SPEC["end_to_end"]
    blocks = harness.blocks
    digest = harness.digest()
    known = expected_digest(workload.name, args.seed, blocks) if args.scale == "full" else None

    metrics = {}
    for m in wanted:
        value = values.get(m["name"], 0)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(workload.name, m["name"], f"{value:.6g}", m["unit"])
    # Always 0 in an accepted run, so it cannot be a BENCHMARK.json metric
    # ("choose metrics that are never 0"); the result line carries its parts.
    print(workload.name, "failed_ops_share",
          f"{harness.failed / harness.attempted:.6g}", "ratio")
    if not args.trace:
        for cls in CLASSES:
            d = harness.durations[cls]
            print(f"# {workload.name} {cls}: n={len(d)}"
                  f" p50={harness.latency_us(cls, 0.5):.1f}us"
                  f" p99={harness.latency_us(cls, 0.99):.1f}us")
    print(f"# {workload.name} collector pauses inside calls:"
          f" {harness.paused_ns / 1e9:.3f} s of {harness.busy_ns / 1e9:.3f} s busy")
    print(f"# {workload.name} seed={args.seed} blocks={blocks} digest={digest}"
          f" expected={known or 'none for this seed/length'}")
    if harness.first_failure:
        print("# first failure:", harness.first_failure, file=sys.stderr)
    correct = harness.failed == 0 and known in (None, digest)
    result = {
        "correct": correct,
        "attempted": harness.attempted,
        "failed": harness.failed,
        "metrics": metrics,
    }
    if args.json:
        record = dict(result, workload=workload.name, seed=args.seed,
                      trace=args.trace, scale=args.scale, blocks=blocks,
                      digest=digest, env=environment())
        append_record(Path(args.json), record)
    print(json.dumps(result))
    return 0 if correct else 1


# ----------------------------------------------------------------------
# Many runs: one fresh subprocess each, never two at a time
# ----------------------------------------------------------------------
def environment() -> Dict[str, object]:
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": commit,
    }


def append_record(path: Path, record: dict) -> None:
    runs = json.loads(path.read_text())["runs"] if path.exists() else []
    runs.append(record)
    path.write_text(json.dumps({"runs": runs}, indent=1) + "\n")


def quartiles(values: List[float]):
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def run_many(args) -> int:
    """``--workload all`` and/or ``--repeat K``: sequential subprocesses."""
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    status = 0
    for name in names:
        results = []
        for _ in range(args.repeat):
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--scale", args.scale]
            if args.json:
                cmd += ["--json", args.json]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.splitlines()
            if args.repeat == 1:
                print("\n".join(lines[:-1]))
            status = status or proc.returncode
            if lines and lines[-1].startswith("{"):
                results.append(json.loads(lines[-1]))
        if args.repeat > 1 and results:
            for metric in results[0]["metrics"]:
                vals = [r["metrics"][metric]["value"] for r in results]
                q1, q2, q3 = quartiles(vals)
                print(name, metric, f"median={q2:.6g} q1={q1:.6g} q3={q3:.6g}",
                      results[0]["metrics"][metric]["unit"], f"n={len(vals)}")
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        print(f"# {name}: {len(results)}/{args.repeat} runs reported,"
              f" failed ops {failed}/{attempted}")
    return status


# ----------------------------------------------------------------------
# Maintenance: expected.json and the layer table
# ----------------------------------------------------------------------
def record_expected(args) -> int:
    """Rewrite this workload/seed's digests in expected.json: one for the
    traced length and one for the untraced length at ``run_seconds``."""
    workload = WORKLOADS[args.workload]
    harness = Harness(workload, args.seed, set_up(workload, args.seed)[0])
    digests = {}
    for blocks in sorted({TRACE_BLOCKS, workload.blocks or SPEC["run_seconds"]}):
        harness.run_blocks(blocks - harness.blocks)
        digests[str(blocks)] = harness.digest()
    if harness.failed:
        print("refusing to record a run with failed ops:", harness.first_failure,
              file=sys.stderr)
        return 1
    expected = json.loads(EXPECTED_PATH.read_text()) if EXPECTED_PATH.exists() else {}
    expected.setdefault(workload.name, {})[str(args.seed)] = digests
    EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"recorded {digests} for {workload.name} seed {args.seed}")
    return 0


def should_move(metric: str, layer_map: Dict[str, List[str]]) -> List[str]:
    """The ``end_to_end_metric@workload`` pairs a per-layer metric should
    move: layer_map.json's entry for the longest dotted prefix of its name."""
    parts = metric.split(".")
    for n in range(len(parts), 0, -1):
        entry = layer_map.get(".".join(parts[:n]))
        if entry is not None:
            return entry
    raise KeyError(f"{metric} has no entry in layer_map.json")


def render_table(path: Path) -> str:
    """LAYERS.md from a results JSON: where the time goes, per workload."""
    runs = json.loads(path.read_text())["runs"]
    env = runs[0]["env"]
    out = [
        "# bench_e2e — per-layer budget",
        "",
        f"Generated by `bench_e2e.py --render-table {path.name}`; do not edit.",
        f"Commit `{env['commit']}`, Python {env['python']}, numpy {env['numpy']},"
        f" nproc {env['nproc']}.",
        "",
        "## End to end (untraced runs; median [q1, q3] of n)",
        "",
    ]
    names = [w for w in WORKLOADS if any(r["workload"] == w for r in runs)]
    out += ["| metric | unit | " + " | ".join(names) + " |",
            "|---|---|" + "---|" * len(names)]
    for m in SPEC["end_to_end"]:
        cells = []
        for w in names:
            vals = [r["metrics"][m["name"]]["value"] for r in runs
                    if r["workload"] == w and not r["trace"]]
            if not vals:
                cells.append("")
                continue
            q1, q2, q3 = quartiles(vals)
            cells.append(f"{q2:.4g} [{q1:.4g}, {q3:.4g}] n={len(vals)}")
        out.append(f"| `{m['name']}` | {m['unit']} | " + " | ".join(cells) + " |")

    traced = {r["workload"]: r["metrics"] for r in runs if r["trace"]}
    out += ["", "## Exclusive seconds per layer (traced run: set-up +"
            f" {TRACE_BLOCKS} blocks; share of the reported total)", ""]
    layers: Dict[str, List[str]] = {}
    for m in SPEC["per_layer"]:
        if m["name"].endswith(".self_s"):
            layers.setdefault(".".join(m["name"].split(".")[:2]), []).append(m["name"])
    names = [w for w in names if w in traced]
    out += ["| layer | " + " | ".join(names) + " |", "|---|" + "---|" * len(names)]
    totals = {w: sum(traced[w][n]["value"] for ns in layers.values() for n in ns)
              for w in names}
    for layer, members in layers.items():
        cells = []
        for w in names:
            s = sum(traced[w][n]["value"] for n in members)
            cells.append(f"{s:.3f} ({100 * s / totals[w]:.1f} %)")
        out.append(f"| `{layer}` | " + " | ".join(cells) + " |")
    out.append("| **total** | " + " | ".join(f"{totals[w]:.3f}" for w in names) + " |")

    layer_map = json.loads((HERE / "layer_map.json").read_text())
    out += ["", "## Every per-layer metric", "",
            "| metric | unit | " + " | ".join(names) + " | should move (metric@workload) |",
            "|---|---|" + "---|" * len(names) + "---|"]
    for m in SPEC["per_layer"]:
        cells = [f"{traced[w][m['name']]['value']:.6g}" for w in names]
        cells.append(", ".join(should_move(m["name"], layer_map)))
        out.append(f"| `{m['name']}` | {m['unit']} | " + " | ".join(cells) + " |")
    return "\n".join(out) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                        help="steady-state blocks to measure, one per second")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1,
                        default=0, help="per-layer metrics from a traced run")
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--repeat", type=int, default=1,
                        help="fresh subprocesses per workload; prints quartiles")
    parser.add_argument("--json", metavar="OUT",
                        help="append one record per run to this file")
    parser.add_argument("--record-expected", action="store_true",
                        help="rewrite this workload/seed in expected.json")
    parser.add_argument("--render-table", metavar="RESULTS_JSON",
                        help="print LAYERS.md for a --json file and exit")
    args = parser.parse_args(argv)
    if args.render_table:
        print(render_table(Path(args.render_table)), end="")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.record_expected:
        return record_expected(args)
    if args.workload == "all" or args.repeat > 1:
        return run_many(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
