"""Complexity-claim validation (§2.3, §3): measured scaling vs the
analytic bounds.

Three checks back the paper's asymptotic statements with measurements:

* **lookup hops** grow like ``O(log N)`` in every overlay;
* **state size** per node grows like ``O(log N)``;
* **LDT advertisement depth** grows like ``O(log_k log N)``;
* **eq. (1)**: under clustered naming with ∇ ≥ 1/2, stationary →
  stationary routes need (almost) no address resolutions.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, Sequence

import numpy as np

from ..core.analysis import advertisement_hops
from ..core.ldt import LDTMember, build_ldt
from ..overlay.factory import make_overlay
from ..overlay.keyspace import KeySpace
from ..sim.rng import RngStreams, derive_seed
from .common import ResultTable
from .fig7_naming import RoutePoint, measure_routes, mobile_for
from .parallel import derive_point_seeds, sweep_map, warm_shared_underlay

__all__ = ["run_hop_scaling", "run_ldt_depth_scaling", "run_eq1_check"]


@dataclasses.dataclass(frozen=True)
class _HopScalingPoint:
    """One network size of the lookup/state-scaling sweep."""

    overlay_name: str
    n: int
    routes_per_size: int
    seed: int  # derived per-point child seed (not ``seed + n``)


def _hop_scaling_point(pt: _HopScalingPoint) -> Dict[str, float]:
    """Module-level (picklable) per-size worker for :func:`sweep_map`."""
    space = KeySpace()
    rng = RngStreams(pt.seed)
    keys = [int(k) for k in space.random_keys(rng, "keys", pt.n)]
    ov = make_overlay(pt.overlay_name, space)
    ov.build(keys)
    gen = rng.stream("routes")
    hops = []
    for _ in range(pt.routes_per_size):
        s = keys[int(gen.integers(pt.n))]
        t = int(gen.integers(space.size))
        hops.append(ov.route(s, t).hop_count)
    state = ov.state_size_stats()
    return {"mean_hops": float(np.mean(hops)), "mean_state": state["mean"]}


def run_hop_scaling(
    overlay_name: str = "chord",
    sizes: Sequence[int] = (128, 256, 512, 1024, 2048),
    routes_per_size: int = 300,
    seed: int = 13,
) -> ResultTable:
    """Mean lookup hops and state size across network sizes.

    Per-size seeds derive through the sweep helper (the former ``seed + n``
    formula produced correlated adjacent seeds and collided whenever two
    sweeps' ``seed + n`` grids overlapped).
    """
    table = ResultTable(
        title=f"Bound check — {overlay_name} lookup/state scaling",
        columns=["N", "mean hops", "log2 N", "hops/log2 N", "mean state", "state/log2 N"],
        notes=[f"{routes_per_size} random routes per size"],
    )
    seeds = derive_point_seeds(seed, list(sizes), variants=(overlay_name,))
    points = [
        _HopScalingPoint(
            overlay_name=overlay_name,
            n=n,
            routes_per_size=routes_per_size,
            seed=seeds[(n, overlay_name)],
        )
        for n in sizes
    ]
    results = sweep_map(_hop_scaling_point, points)
    for n, res in zip(sizes, results):
        log_n = math.log2(n)
        table.add_row(
            **{
                "N": n,
                "mean hops": res["mean_hops"],
                "log2 N": log_n,
                "hops/log2 N": res["mean_hops"] / log_n,
                "mean state": res["mean_state"],
                "state/log2 N": res["mean_state"] / log_n,
            }
        )
    return table


@dataclasses.dataclass(frozen=True)
class _LDTDepthPoint:
    """One population size of the LDT-depth sweep (pure computation)."""

    n: int
    branching_capacity: int
    trees_per_size: int


def _ldt_depth_point(pt: _LDTDepthPoint) -> float:
    """Module-level (picklable) per-size worker for :func:`sweep_map`."""
    registry = max(1, math.ceil(math.log2(pt.n)))
    depths = []
    for _ in range(pt.trees_per_size):
        members = [
            LDTMember(key=i + 1, capacity=float(pt.branching_capacity))
            for i in range(registry)
        ]
        root = LDTMember(key=0, capacity=float(pt.branching_capacity))
        depths.append(build_ldt(root, members).depth)
    return float(np.mean(depths))


def run_ldt_depth_scaling(
    sizes: Sequence[int] = (256, 1024, 4096, 16384, 65536),
    branching_capacity: int = 4,
    trees_per_size: int = 100,
    seed: int = 14,
) -> ResultTable:
    """Measured LDT depth vs the ``O(log_k log N)`` bound (§2.3.2)."""
    table = ResultTable(
        title="Bound check — LDT advertisement depth",
        columns=["N", "registry", "mean depth", "bound log_k(log N)"],
        notes=[f"uniform capacity {branching_capacity} (k = {branching_capacity}), "
               f"{trees_per_size} trees per size"],
    )
    points = [
        _LDTDepthPoint(
            n=n,
            branching_capacity=branching_capacity,
            trees_per_size=trees_per_size,
        )
        for n in sizes
    ]
    results = sweep_map(_ldt_depth_point, points)
    for n, mean_depth in zip(sizes, results):
        registry = max(1, math.ceil(math.log2(n)))
        table.add_row(
            **{
                "N": n,
                "registry": registry,
                "mean depth": mean_depth,
                "bound log_k(log N)": advertisement_hops(n, branching_capacity),
            }
        )
    return table


#: Underlay size for the eq. (1) sweep (all fractions share one bundle).
_EQ1_ROUTER_COUNT = 200


def run_eq1_check(
    num_stationary: int = 300,
    fractions: Sequence[float] = (0.1, 0.3, 0.5, 0.6, 0.8),
    routes: int = 500,
    seed: int = 15,
) -> ResultTable:
    """Equation (1): resolutions on stationary→stationary routes under
    clustered naming, measured against the analytic predicate.

    Eq. (1) is an existence claim — "if the route *can* be forwarded by
    stationary nodes" — so routing uses the §3 prefer-resolved policy,
    which takes a stationary next hop whenever one makes progress.  With
    ∇ ≥ 1/2 (M/N ≤ 50%) essentially no route should need a resolution;
    past 50% the mobile key region exceeds the largest finger span
    (ρ/2), every wrapping route must land in it, and resolutions appear.
    """
    table = ResultTable(
        title="Bound check — §3 eq. (1), clustered naming",
        columns=[
            "M/N (%)",
            "nabla",
            "routes w/ resolution (%)",
            "predicted unsafe (%)",
        ],
        notes=[f"{num_stationary} stationary nodes, {routes} routes per point"],
    )
    underlay_seed = derive_seed(seed, "underlay")
    warm_shared_underlay(underlay_seed, _EQ1_ROUTER_COUNT)
    seeds = derive_point_seeds(seed, list(fractions))
    points = [
        RoutePoint(
            "clustered",
            num_stationary,
            mobile_for(num_stationary, frac),
            routes,
            seeds[(frac, "")],
            _EQ1_ROUTER_COUNT,
            underlay_seed,
            "prefer_resolved",
        )
        for frac in fractions
    ]
    for frac, pt, res in zip(fractions, points, sweep_map(measure_routes, points)):
        table.add_row(
            **{
                "M/N (%)": round(100 * frac, 1),
                "nabla": pt.num_stationary / (pt.num_stationary + pt.num_mobile),
                "routes w/ resolution (%)": 100.0 * res["levels"][0]["with_res"] / routes,
                "predicted unsafe (%)": 100.0 * res["unsafe"] / routes,
            }
        )
    return table
