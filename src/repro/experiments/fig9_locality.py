"""Figure 9: LDT advertisement cost with and without network locality
(§4.3).

Paper setup: Bristle nodes dynamically join a 10,000-router network;
capacities uniform 1..15; for every LDT the per-edge cost is the shortest-
path weight between the edge's endpoints, and the metric is the **average
per-tree per-edge cost** over all trees.  With locality-aware
registration, a mobile node's registrants are network-close, so tree
edges are short; without locality they scatter across the topology and
stay expensive regardless of M/N.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core.bristle import BristleNetwork
from ..core.config import BristleConfig
from ..net.underlay import cache_stats_delta
from ..sim.rng import derive_seed
from .common import (
    ResultTable,
    add_sweep_cache_footer,
    driver_profiler,
    maybe_add_phase_footer,
)
from .fig7_naming import mobile_for
from .parallel import derive_point_seeds, sweep_map, sweep_underlay, warm_shared_underlay

__all__ = ["Fig9Params", "measure_ldt_costs", "run_fig9"]


@dataclasses.dataclass(frozen=True)
class Fig9Params:
    """Sizing for the Figure-9 sweep.

    The paper grows the Bristle population *into* a fixed 10,000-router
    network ("Bristle nodes are dynamically increased and randomly
    assigned to a network comprising of 10,000 nodes"), so the x-axis
    M/N also increases host density — which is exactly why the
    locality-aware curve improves: a denser pool gives each tree closer
    candidates ("the greater alternative in picking those nodes it is
    interested in").  We therefore keep ``num_stationary`` fixed and add
    mobile nodes to reach each M/N point.
    """

    num_stationary: int = 150
    router_count: int = 1200
    fractions: Sequence[float] = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
    max_capacity: int = 15
    trees_sampled: Optional[int] = 300  # None → measure every LDT
    seed: int = 9

    @staticmethod
    def paper_scale() -> "Fig9Params":
        """The paper's 10,000-router network (slower; run explicitly)."""
        return Fig9Params(num_stationary=1000, router_count=10000, trees_sampled=500)


def measure_ldt_costs(
    net: BristleNetwork,
    *,
    with_locality: bool,
    trees_sampled: Optional[int] = None,
) -> Dict[str, float]:
    """Average per-tree per-edge cost over the network's LDTs.

    ``with_locality`` selects the registration strategy: the
    network-closest candidates (§4.3's steady state after periodic
    re-joins) versus uniformly random registrants.
    """
    prof = driver_profiler()
    mobile = list(net.mobile_keys)
    if trees_sampled is not None and trees_sampled < len(mobile):
        mobile = net.rng.sample("fig9.trees", mobile, trees_sampled)
    # Every edge endpoint is a member, so the attachment routers of the
    # membership are the exact oracle source set this sweep can touch —
    # batch-compute them once, then registration setup and edge costs are
    # pure cache gathers.
    with prof.phase("warmup"):
        net.prewarm_oracle()
        if with_locality:
            net.setup_local_registrations(only_keys=mobile)
        else:
            net.setup_random_registrations(only_keys=mobile)
    per_tree_means: List[float] = []
    total_edges = 0
    with prof.phase("measure"):
        oracle = net.ldt_cost_oracle
        for mk in mobile:
            if not net.nodes[mk].registry:
                continue
            tree = net.build_ldt_for(mk, locality_tie_break=with_locality)
            costs = tree.edge_costs(oracle)
            if costs:
                per_tree_means.append(float(np.mean(costs)))
                total_edges += len(costs)
    return {
        "per_tree_per_edge_cost": float(np.mean(per_tree_means)) if per_tree_means else math.nan,
        "trees": float(len(per_tree_means)),
        "edges": float(total_edges),
        "cache_stats": net.oracle.cache_stats(),
    }


@dataclasses.dataclass(frozen=True)
class _Fig9Point:
    """One mobility fraction of the Fig-9 sweep.

    Both registration strategies live in the *same* point: the paper's
    paired design builds two networks from one seed (identical topology,
    keys and placement — only registration differs), so the with/without
    variants must share the per-fraction child seed rather than get
    decoupled ones.
    """

    fraction: float
    num_stationary: int
    num_mobile: int
    router_count: int
    max_capacity: int
    trees_sampled: Optional[int]
    underlay_seed: int
    seed: int


def _fig9_point(pt: _Fig9Point) -> Dict[str, object]:
    """Module-level (picklable) per-point worker for :func:`sweep_map`."""
    bundle = sweep_underlay(pt.underlay_seed, pt.router_count)
    before = bundle.oracle.cache_stats()
    prof = driver_profiler()
    cfg = BristleConfig(seed=pt.seed, naming="scrambled")
    results: Dict[str, object] = {}
    for label, with_locality in (("loc", True), ("rand", False)):
        with prof.phase("build"):
            net = BristleNetwork(
                cfg,
                pt.num_stationary,
                pt.num_mobile,
                underlay=bundle,
                max_capacity=pt.max_capacity,
            )
        results[label] = measure_ldt_costs(
            net, with_locality=with_locality, trees_sampled=pt.trees_sampled
        )
    # One delta for the whole point: the bundle oracle outlives the two
    # networks (and, with reuse, the point itself).
    results["cache_stats"] = cache_stats_delta(before, bundle.oracle.cache_stats())
    return results


def run_fig9(params: Optional[Fig9Params] = None) -> ResultTable:
    """The Figure-9 sweep: cost with vs without locality across M/N.

    Fractions are independent points fanned out via :func:`sweep_map`; the
    underlay bundle is shared across all of them (keyed on
    ``(derive_seed(p.seed, "underlay"), router_count)``) and each fraction
    derives its own child seed, shared by the paired loc/rand builds.
    """
    p = params if params is not None else Fig9Params()
    table = ResultTable(
        title="Figure 9 — LDT cost with / without network locality",
        columns=[
            "M/N (%)",
            "N",
            "with locality",
            "without locality",
            "penalty (x)",
            "trees measured",
        ],
        notes=[
            f"{p.num_stationary} stationary nodes, mobile nodes added per point, "
            f"~{p.router_count}-router transit-stub underlay (paper: 10,000 "
            "routers); cost = mean shortest-path weight per LDT edge, averaged "
            "over trees",
        ],
    )
    for frac in p.fractions:
        if not 0.0 < frac < 1.0:
            raise ValueError("fractions must lie in (0, 1)")
    underlay_seed = derive_seed(p.seed, "underlay")
    seeds = derive_point_seeds(p.seed, list(p.fractions))
    warmed = warm_shared_underlay(underlay_seed, p.router_count)
    points = [
        _Fig9Point(
            fraction=frac,
            num_stationary=p.num_stationary,
            num_mobile=num_mobile,
            router_count=p.router_count,
            max_capacity=p.max_capacity,
            trees_sampled=p.trees_sampled,
            underlay_seed=underlay_seed,
            seed=seeds[(frac, "")],
        )
        for frac in p.fractions
        if (num_mobile := mobile_for(p.num_stationary, frac)) >= 1
    ]
    results = sweep_map(_fig9_point, points)
    for pt, res in zip(points, results):
        loc, rand = res["loc"], res["rand"]
        cost_loc = loc["per_tree_per_edge_cost"]
        cost_rand = rand["per_tree_per_edge_cost"]
        table.add_row(
            **{
                "M/N (%)": round(100 * pt.fraction, 1),
                "N": pt.num_stationary + pt.num_mobile,
                "with locality": cost_loc,
                "without locality": cost_rand,
                "penalty (x)": cost_rand / cost_loc if cost_loc else math.nan,
                "trees measured": loc["trees"],
            }
        )
    add_sweep_cache_footer(table, [warmed] + [res["cache_stats"] for res in results])
    maybe_add_phase_footer(table, ("build", "warmup", "measure"))
    return table
