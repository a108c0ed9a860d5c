"""Figure 8: LDT adaptation to workload and heterogeneity (§4.2).

Paper setup: up to 25,000 nodes; each node's capacity (number of available
network connections) uniform in ``1..MAX`` for ``MAX = 1..15``; each LDT
has ⌈log₂ 25,000⌉ = 15 registry members.

* **Fig 8(a)** — for each MAX, the percentage of tree nodes at each level
  over all LDTs: homogeneous weak nodes (MAX = 1) degenerate into chains
  (depth ≈ registry size); richer capacity mixes flatten the trees.
* **Fig 8(b)** — 15 sampled trees: per registry node (sorted by
  decreasing capacity) its capacity and the number of nodes it was
  assigned (the Fig-4 partition size), showing super-nodes carry the
  forwarding load and partitions stay nearly equal.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.ldt import LDTMember, LDTree, build_ldt
from ..sim.rng import RngStreams
from .common import ResultTable

__all__ = [
    "Fig8Params",
    "run_fig8_workload",
    "build_random_ldt",
    "run_fig8a",
    "run_fig8b",
    "sample_tree_profiles",
]


@dataclasses.dataclass(frozen=True)
class Fig8Params:
    """Sizing for the Figure-8 runs."""

    registry_size: int = 15  # ⌈log2 25000⌉ in the paper
    trees_per_max: int = 200  # LDTs measured per MAX value
    max_values: Sequence[int] = tuple(range(1, 16))
    unit_cost: float = 1.0
    seed: int = 8

    @staticmethod
    def paper_scale() -> "Fig8Params":
        """Closer to "we measure all LDTs" over 25,000 nodes."""
        return Fig8Params(trees_per_max=2000)


def build_random_ldt(
    registry_size: int,
    max_capacity: int,
    rng: RngStreams,
    *,
    unit_cost: float = 1.0,
    used_fraction: float = 0.0,
    stream: str = "fig8",
) -> LDTree:
    """One LDT whose root and registry draw uniform capacities 1..MAX.

    ``used_fraction`` optionally pre-loads each node with that fraction of
    its capacity (the workload knob of §4.2's "tree depth becomes
    lengthened" observation).
    """
    if registry_size < 1:
        raise ValueError("registry_size must be >= 1")
    if max_capacity < 1:
        raise ValueError("max_capacity must be >= 1")
    if not 0.0 <= used_fraction < 1.0:
        raise ValueError("used_fraction must be in [0, 1)")
    gen = rng.stream(stream)
    caps = gen.integers(1, max_capacity + 1, size=registry_size + 1)
    members = [
        LDTMember(key=i + 1, capacity=float(c), used=float(c) * used_fraction)
        for i, c in enumerate(caps[1:])
    ]
    root = LDTMember(key=0, capacity=float(caps[0]), used=float(caps[0]) * used_fraction)
    return build_ldt(root, members, unit_cost=unit_cost)


def run_fig8a(params: Optional[Fig8Params] = None) -> ResultTable:
    """Level distribution of LDT members per MAX (Fig 8a).

    Columns: MAX, mean/max depth, then the percentage of members at
    levels 1..registry_size.
    """
    p = params if params is not None else Fig8Params()
    level_cols = [f"L{lvl} (%)" for lvl in range(1, p.registry_size + 1)]
    table = ResultTable(
        title="Figure 8(a) — LDT structure vs node capacity",
        columns=["MAX", "mean depth", "max depth"] + level_cols,
        notes=[
            f"registry size {p.registry_size} (paper: ceil(log2 25000) = 15), "
            f"{p.trees_per_max} trees per MAX, capacities U(1..MAX)",
        ],
    )
    rng = RngStreams(p.seed)
    for max_cap in p.max_values:
        counts = np.zeros(p.registry_size + 2, dtype=np.int64)
        depths: List[int] = []
        for t in range(p.trees_per_max):
            tree = build_random_ldt(
                p.registry_size, max_cap, rng, unit_cost=p.unit_cost,
                stream=f"fig8a.{max_cap}",
            )
            depths.append(tree.depth)
            for lvl, n in tree.level_histogram().items():
                counts[min(lvl, p.registry_size + 1)] += n
        total = counts.sum()
        row: Dict[str, float] = {
            "MAX": max_cap,
            "mean depth": float(np.mean(depths)),
            "max depth": float(np.max(depths)),
        }
        for lvl in range(1, p.registry_size + 1):
            row[f"L{lvl} (%)"] = 100.0 * counts[lvl] / total if total else 0.0
        table.add_row(**row)
    return table


def sample_tree_profiles(
    num_trees: int,
    registry_size: int,
    max_capacity: int,
    seed: int,
    *,
    unit_cost: float = 1.0,
) -> List[List[Tuple[float, int]]]:
    """Fig 8(b) raw data: for each sampled tree, the (capacity, assigned)
    pairs of its nodes sorted by decreasing capacity (root first tie)."""
    rng = RngStreams(seed)
    profiles = []
    for t in range(num_trees):
        tree = build_random_ldt(
            registry_size, max_capacity, rng, unit_cost=unit_cost, stream=f"fig8b.{t}"
        )
        members = list(zip(tree.capacities, tree.keys, tree.assigned))[1:]
        members.sort(key=lambda m: (-m[0], m[1]))
        profiles.append([(capacity, assigned) for capacity, _, assigned in members])
    return profiles


def run_fig8b(
    num_trees: int = 15,
    registry_size: int = 15,
    max_capacity: int = 15,
    seed: int = 8,
) -> ResultTable:
    """Fig 8(b): per-node capacity and assignment for sampled trees.

    One row per (tree, node-rank); the benches verify the paper's two
    observations — forwarding subsets go to the high-capacity nodes, and
    head partitions are nearly equal in size.
    """
    table = ResultTable(
        title="Figure 8(b) — heterogeneity and load balance in LDTs",
        columns=["tree", "node rank", "capacity", "nodes assigned"],
        notes=[f"{num_trees} sampled trees, registry size {registry_size}, MAX={max_capacity}"],
    )
    profiles = sample_tree_profiles(num_trees, registry_size, max_capacity, seed)
    for t, profile in enumerate(profiles, start=1):
        for rank, (cap, assigned) in enumerate(profile, start=1):
            table.add_row(
                **{"tree": t, "node rank": rank, "capacity": cap, "nodes assigned": assigned}
            )
    return table


def run_fig8_workload(
    registry_size: int = 15,
    max_capacity: int = 8,
    used_fractions: Sequence[float] = (0.0, 0.25, 0.5, 0.75, 0.9),
    trees: int = 200,
    seed: int = 8,
) -> ResultTable:
    """§4.2's workload observation, swept: "When each node in a tree
    encounters heavy workload, the tree depth becomes lengthened."

    Capacities stay fixed while every node's ``Used`` consumes a growing
    fraction of its capacity; the effective branching ⌊Avail/v⌋ shrinks
    and the trees deepen toward chains.
    """
    table = ResultTable(
        title="Figure 8 (workload sweep) — LDT depth vs node load",
        columns=["used (%)", "mean depth", "max depth", "mean branching"],
        notes=[
            f"registry {registry_size}, capacities U(1..{max_capacity}), "
            f"{trees} trees per point",
        ],
    )
    rng = RngStreams(seed)
    for frac in used_fractions:
        depths: List[int] = []
        branchings: List[float] = []
        for t in range(trees):
            tree = build_random_ldt(
                registry_size,
                max_capacity,
                rng,
                used_fraction=frac,
                stream=f"fig8w.{frac}",
            )
            depths.append(tree.depth)
            if tree.fanouts:
                branchings.append(float(np.mean(tree.fanouts)))
        table.add_row(
            **{
                "used (%)": round(100 * frac, 1),
                "mean depth": float(np.mean(depths)),
                "max depth": float(np.max(depths)),
                "mean branching": float(np.mean(branchings)),
            }
        )
    return table
