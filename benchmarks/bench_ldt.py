"""LDT forest benchmark: vectorised batch tree construction vs sequential.

The forest builder (``repro.core.ldt_forest``) constructs the
Fig-4 advertisement trees for a whole batch of registries in one
level-synchronous array pass; ``build_ldt`` is the scalar single-sort
kernel for one registry; the Fig-4 recursion both replaced is the parity
reference in ``tests/oracles/ldt.py``.  This harness measures them two
ways:

* **structure** — a fixed-size workload (identical at every ``--scale``)
  built with the forest engine, cross-checked tree-by-tree (forest tree
  and scalar kernel) against the recursion, and summarised with
  deterministic counts and checksums (members, messages, depth sum,
  level histogram, the canonical level-major edge order).  The
  bench-report gate checks every ``structure.*`` leaf for exact equality
  against the committed baseline.
* **speedup** — the scale-keyed workload timed four ways: forest columns,
  forest columns plus ``tree(i)`` for every tree, the scalar kernel, and
  the recursion.  The mix covers the two regimes that matter: *fan-out*
  trees (capacities 1..15, fractional ``used`` noise) where the forest's
  win is the single batched lexsort, and *delegation chains* (every
  capacity 1.0, so each sender delegates to exactly one head) where the
  recursion re-sorts the remaining registry at every level and goes
  quadratic while both kernels stay linear.  CI asserts the headline
  ``speedup`` — recursion ÷ forest columns, the pair the gate was written
  about — stays >= 10x; timings are informational to bench-report.

Writes

* ``benchmarks/results/BENCH_ldt.json`` — machine-readable trajectory;
* ``benchmarks/results/BENCH_ldt.txt`` — the human summary.

Run directly: ``PYTHONPATH=src python benchmarks/bench_ldt.py
[--scale quick|full] [--sanitize]``.  ``--sanitize`` runs
``repro.sanitize.check_ldt`` on every materialised tree, outside the
timed sections; counts do not change.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import sys
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

RESULTS_DIR = pathlib.Path(__file__).resolve().parent / "results"
ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro import sanitize  # noqa: E402
from repro.core.ldt import LDTMember, build_ldt  # noqa: E402
from repro.core.ldt_forest import ForestSpec, build_ldt_forest  # noqa: E402
from tests.oracles.ldt import assert_tree_matches, recursive_ldt  # noqa: E402

#: (fan-out trees, members each, chain trees, members each) per scale.
SCALES = {
    "quick": (120, 300, 60, 150),
    "full": (700, 1000, 300, 400),
}

#: Fixed-size structure workload — identical at every --scale so the
#: committed baseline gates the same numbers CI regenerates.
STRUCT_PARAMS = (60, 200, 30, 120)
STRUCT_SEED = 71
SPEEDUP_SEED = 72


def make_specs(
    n_fanout: int,
    fanout_members: int,
    n_chain: int,
    chain_members: int,
    seed: int,
) -> List[ForestSpec]:
    """The two-regime workload: fan-out trees then delegation chains."""
    rng = np.random.default_rng(seed)
    specs: List[ForestSpec] = []
    for t in range(n_fanout):
        keys = rng.permutation(fanout_members) + 1
        caps = rng.integers(1, 16, size=fanout_members).astype(float)
        used = np.round(rng.uniform(0.0, 0.5, size=fanout_members), 3)
        registry = [
            LDTMember(key=int(k), capacity=float(c), used=float(u))
            for k, c, u in zip(keys, caps, used)
        ]
        root = LDTMember(
            key=-(t + 1), capacity=float(rng.integers(2, 16)), used=0.0
        )
        specs.append(ForestSpec(root=root, registry=registry))
    for t in range(n_chain):
        keys = rng.permutation(chain_members) + 1
        registry = [
            LDTMember(key=int(k), capacity=1.0, used=0.0) for k in keys
        ]
        root = LDTMember(key=-(n_fanout + t + 1), capacity=1.0, used=0.0)
        specs.append(ForestSpec(root=root, registry=registry))
    return specs


def _fold(digest_input: Tuple[np.ndarray, ...]) -> int:
    """First 12 hex digits of a sha256 over the arrays, as an integer."""
    h = hashlib.sha256()
    for arr in digest_input:
        h.update(np.ascontiguousarray(arr, dtype=np.int64).tobytes())
    return int(h.hexdigest()[:12], 16)


def bench_structure() -> Dict[str, object]:
    """Fixed workload: builders vs recursion parity plus structural checksums."""
    specs = make_specs(*STRUCT_PARAMS, seed=STRUCT_SEED)
    forest = build_ldt_forest(specs)
    mismatches = 0
    for t, spec in enumerate(specs):
        args = (spec.root, spec.registry, spec.unit_cost)
        expected = recursive_ldt(*args, tie_break=spec.tie_break)
        tree = forest.tree(t)
        if sanitize.enabled():
            sanitize.check_ldt(tree, spec.unit_cost)
        try:
            assert_tree_matches(tree, expected)
            assert_tree_matches(build_ldt(*args, tie_break=spec.tie_break), expected)
        except AssertionError:
            mismatches += 1
    parents, children = forest.edge_arrays()
    hist = forest.level_histogram()
    return {
        "trees": forest.num_trees,
        "members": forest.num_members,
        "messages": int(forest.message_counts().sum()),
        "depth_sum": int(forest.depths().sum()),
        "max_depth": int(forest.depths().max()),
        "level_checksum": _fold((hist,)),
        "edges_checksum": _fold((parents, children)),
        "oracle_mismatches": mismatches,
        "parity_matches_oracle": int(mismatches == 0),
    }


def bench_speedup(scale: str) -> Dict[str, object]:
    """Timed forest / scalar kernel / recursion builds on the scale-keyed workload."""
    n_fanout, fanout_members, n_chain, chain_members = SCALES[scale]
    specs = make_specs(
        n_fanout, fanout_members, n_chain, chain_members, seed=SPEEDUP_SEED
    )
    # Warm the array kernels once, then keep the best of three builds:
    # the first numpy pass pays one-off allocator/page-fault costs the
    # sequential side (running per-tree) never sees in one lump.
    build_ldt_forest(specs[:2])
    forest_s = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        forest = build_ldt_forest(specs)
        forest_s = min(forest_s, time.perf_counter() - t0)
    t0 = time.perf_counter()
    trees = [forest.tree(t) for t in range(forest.num_trees)]
    trees_s = time.perf_counter() - t0
    if sanitize.enabled():
        for tree, spec in zip(trees, specs):
            sanitize.check_ldt(tree, spec.unit_cost)

    def per_spec(builder) -> float:
        t0 = time.perf_counter()
        for spec in specs:
            builder(
                spec.root, spec.registry, spec.unit_cost, tie_break=spec.tie_break
            )
        return time.perf_counter() - t0

    kernel_s = per_spec(build_ldt)
    seq_s = per_spec(recursive_ldt)
    return {
        "trees": forest.num_trees,
        "members": forest.num_members,
        "fanout_trees": n_fanout,
        "chain_trees": n_chain,
        "sequential_s": round(seq_s, 4),
        "kernel_s": round(kernel_s, 4),
        "forest_s": round(forest_s, 4),
        "forest_trees_s": round(forest_s + trees_s, 4),
        "speedup": round(seq_s / forest_s, 2) if forest_s else None,
        "trees_per_sec": round(forest.num_trees / forest_s, 1)
        if forest_s
        else None,
        "members_per_sec": round(forest.num_members / forest_s, 1)
        if forest_s
        else None,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scale", choices=sorted(SCALES), default="full",
        help="quick: CI-sized workload (~180 trees); full: the acceptance "
        "workload (10^3 trees x ~10^3 members)",
    )
    parser.add_argument(
        "--sanitize", action="store_true",
        help="check every materialised tree with repro.sanitize.check_ldt",
    )
    args = parser.parse_args(argv)
    if args.sanitize:
        sanitize.set_enabled(True)

    print("structure: fixed workload, both builders vs the recursion ...", flush=True)
    structure = bench_structure()
    if structure["oracle_mismatches"]:
        raise AssertionError(
            f"a builder diverged from the Fig-4 recursion on "
            f"{structure['oracle_mismatches']} tree(s)"
        )
    print(f"speedup: --scale {args.scale} workload ...", flush=True)
    speedup = bench_speedup(args.scale)

    payload = {
        "benchmark": "ldt",
        "scale": args.scale,
        "sanitize": bool(args.sanitize),
        "python": sys.version.split()[0],
        "structure": structure,
        "speedup": speedup,
    }
    if args.sanitize:
        payload["sanitize_checks"] = sanitize.counts().get("ldt", 0)

    RESULTS_DIR.mkdir(exist_ok=True)
    json_path = RESULTS_DIR / "BENCH_ldt.json"
    json_path.write_text(json.dumps(payload, indent=2) + "\n")

    s = speedup
    lines = [
        f"LDT forest benchmark — vectorised batch construction "
        f"(scale={args.scale})",
        "",
        f"  structure: {structure['trees']} trees / "
        f"{structure['members']} members bit-identical to the Fig-4 "
        f"recursion (edges checksum {structure['edges_checksum']})",
        "",
        f"  {'trees':>7} {'members':>9} {'recursion s':>12} {'kernel s':>9} "
        f"{'forest s':>9} {'+tree() s':>10} {'speedup':>8} {'trees/s':>9}",
        f"  {s['trees']:>7} {s['members']:>9} {s['sequential_s']:>12.3f} "
        f"{s['kernel_s']:>9.3f} {s['forest_s']:>9.3f} "
        f"{s['forest_trees_s']:>10.3f} {s['speedup']:>7.1f}x "
        f"{s['trees_per_sec']:>9.0f}",
        "",
        "  speedup = recursion (tests/oracles/ldt.py) / forest columns; "
        "kernel = scalar build_ldt per registry",
    ]
    if args.sanitize:
        lines.append("")
        lines.append(
            f"  sanitizer: {payload['sanitize_checks']} tree checks, "
            "0 violations"
        )
    text = "\n".join(lines)
    (RESULTS_DIR / "BENCH_ldt.txt").write_text(text + "\n")
    print("\n" + text)
    print(f"\n[written to {json_path}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
