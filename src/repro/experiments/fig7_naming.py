"""Figure 7: scrambled vs clustered naming — application-level hops and
relative delay penalty (§4.1).

Paper setup: ``N − M = 2,000`` stationary nodes, ``M = 0..8,000`` mobile
(M/N from 0 to 80%), nodes placed randomly on a GT-ITM transit-stub
underlay, 10,000 sample routes between randomly picked stationary nodes.
For each naming scheme the experiment reports the mean application-level
hops (Fig 7a) and the mean path cost; Fig 7(b)'s RDP is the
scrambled/clustered ratio of each, with the knee expected at M/N = 50%
(the ∇ ≥ 1/2 bound of §3 eq. 1).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Sequence

import numpy as np

from ..core.bristle import BristleNetwork
from ..core.config import BristleConfig
from ..core.mobility import shuffle_all_mobile
from ..core.routing import route_preferring_resolved, route_with_resolution
from ..net.underlay import (
    UnderlayBundle,
    build_underlay,
    cache_stats_delta,
    shared_underlay_cache,
)
from ..sim.metrics import record_cache_stats
from ..sim.rng import derive_seed
from ..sim.telemetry import active_telemetry
from ..workloads.routes import sample_stationary_pairs
from .common import (
    ResultTable,
    driver_profiler,
    maybe_add_nodeload_footer,
    maybe_add_phase_footer,
)
from .parallel import active_sweep, derive_point_seeds, sweep_map

__all__ = ["Fig7Params", "measure_naming_scheme", "run_fig7"]

#: The paper's M/N sweep: 0%..80% in 10% steps.
DEFAULT_FRACTIONS = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8)


@dataclasses.dataclass(frozen=True)
class Fig7Params:
    """Experiment sizing — defaults are a scaled-down but shape-preserving
    version of the paper's setup; pass ``paper_scale()`` for full size."""

    num_stationary: int = 500
    routes: int = 2000
    router_count: int = 600
    fractions: Sequence[float] = DEFAULT_FRACTIONS
    seed: int = 5
    #: ``"greedy"`` = the plain Fig-2 rule (closest state-pair wins, the
    #: paper's naming-oblivious default); ``"prefer_resolved"`` = §3's
    #: "reduce the help of mobile nodes" policy, which sharpens the 50%
    #: knee (ablation bench).
    routing_policy: str = "greedy"

    def __post_init__(self) -> None:
        if self.routing_policy not in ("greedy", "prefer_resolved"):
            raise ValueError(f"unknown routing policy {self.routing_policy!r}")

    @staticmethod
    def paper_scale() -> "Fig7Params":
        """The paper's 2,000 stationary / 10,000 routes configuration."""
        return Fig7Params(num_stationary=2000, routes=10000, router_count=2600)


def measure_naming_scheme(
    naming: str,
    num_stationary: int,
    num_mobile: int,
    routes: int,
    router_count: int,
    seed: int,
    routing_policy: str = "greedy",
    underlay: Optional[UnderlayBundle] = None,
) -> Dict[str, float]:
    """Build one network, shuffle every mobile node once (cold caches),
    sample routes, and return the Figure-7 aggregates.

    The oracle is pre-warmed with the attachment routers of every member
    (the exact source set the sweep's hop costs can touch) so the 10,000
    per-hop distance reads hit a batch-computed cache; the oracle's
    counters ride along under ``"cache_stats"``.  When a prebuilt
    ``underlay`` bundle is supplied its (possibly shared, already warm)
    oracle is used and the reported stats are this point's *delta* —
    totals then agree with the per-point-oracle path.
    """
    prof = driver_profiler()
    cfg = BristleConfig(seed=seed, naming=naming, p_stale=1.0)
    stats_before = underlay.oracle.cache_stats() if underlay is not None else None
    with prof.phase("build"):
        if underlay is not None:
            net = BristleNetwork(cfg, num_stationary, num_mobile, underlay=underlay)
        else:
            net = BristleNetwork(
                cfg, num_stationary, num_mobile, router_count=router_count
            )
        shuffle_all_mobile(net)
    with prof.phase("warmup"):
        net.prewarm_oracle()  # one batched pass over the post-move routers
    route_fn = (
        route_preferring_resolved if routing_policy == "prefer_resolved" else route_with_resolution
    )
    pairs = sample_stationary_pairs(net.stationary_keys, routes, net.rng)
    hops = np.empty(len(pairs), dtype=np.float64)
    costs = np.empty(len(pairs), dtype=np.float64)
    resolutions = np.empty(len(pairs), dtype=np.float64)
    with prof.phase("route"):
        for i, (s, t) in enumerate(pairs):
            trace = route_fn(net, s, t)
            hops[i] = trace.app_hops
            costs[i] = trace.path_cost
            resolutions[i] = trace.resolutions
    after = net.oracle.cache_stats()
    return {
        "hops": float(hops.mean()),
        "cost": float(costs.mean()),
        "resolutions": float(resolutions.mean()),
        "cache_stats": (
            cache_stats_delta(stats_before, after) if stats_before is not None else after
        ),
    }


@dataclasses.dataclass(frozen=True)
class _Fig7Point:
    """One (mobility fraction, naming scheme) cell of the Fig-7 grid."""

    naming: str
    fraction: float
    num_stationary: int
    num_mobile: int
    routes: int
    router_count: int
    underlay_seed: int
    seed: int
    routing_policy: str
    reuse_underlay: bool


def _fig7_point(pt: _Fig7Point) -> Dict[str, float]:
    """Module-level (picklable) per-point worker for :func:`sweep_map`."""
    bundle = (
        shared_underlay_cache().get(pt.underlay_seed, pt.router_count)
        if pt.reuse_underlay
        else build_underlay(pt.underlay_seed, pt.router_count)
    )
    return measure_naming_scheme(
        pt.naming,
        pt.num_stationary,
        pt.num_mobile,
        pt.routes,
        pt.router_count,
        pt.seed,
        pt.routing_policy,
        underlay=bundle,
    )


def run_fig7(params: Optional[Fig7Params] = None) -> ResultTable:
    """Run the full Figure-7 sweep for both naming schemes.

    Columns cover both sub-figures: mean hops per scheme (7a), mean path
    cost per scheme, and the two RDP ratios (7b).

    The 2 × len(fractions) grid cells are independent: each gets its own
    child seed via :func:`~repro.experiments.parallel.derive_point_seeds`
    (decoupling the scrambled/clustered RNG streams that previously shared
    ``p.seed`` verbatim) and runs through :func:`sweep_map`, sharing one
    prebuilt underlay keyed on ``(derive_seed(p.seed, "underlay"),
    router_count)``.
    """
    p = params if params is not None else Fig7Params()
    table = ResultTable(
        title="Figure 7 — scrambled vs clustered naming",
        columns=[
            "M/N (%)",
            "hops scrambled",
            "hops clustered",
            "cost scrambled",
            "cost clustered",
            "RDP hops",
            "RDP cost",
            "res scrambled",
            "res clustered",
        ],
        notes=[
            f"{p.num_stationary} stationary nodes, {p.routes} routes per point, "
            f"~{p.router_count}-router transit-stub underlay "
            "(paper: 2,000 stationary / 10,000 routes)",
        ],
    )
    cache_totals = {
        "hits": 0.0, "misses": 0.0, "evictions": 0.0,
        "dijkstra_runs": 0.0, "batch_calls": 0.0,
    }
    for frac in p.fractions:
        if frac >= 1.0:
            raise ValueError("mobile fraction must be < 1")
    sweep = active_sweep()
    underlay_seed = derive_seed(p.seed, "underlay")
    seeds = derive_point_seeds(
        p.seed, list(p.fractions), variants=("scrambled", "clustered")
    )
    if sweep.reuse_underlay:
        # Build + fully warm the shared oracle once, before any fork: every
        # attachment point is covered, so each grid cell sees an identical
        # (all-hits) cache regardless of job count or point order.
        bundle = shared_underlay_cache().get(underlay_seed, p.router_count)
        before = bundle.oracle.cache_stats()
        with driver_profiler().phase("warmup"):
            bundle.oracle.prewarm(bundle.topology.attachment_points())
        for k, v in cache_stats_delta(before, bundle.oracle.cache_stats()).items():
            if k in cache_totals:
                cache_totals[k] += v
    points = [
        _Fig7Point(
            naming=naming,
            fraction=frac,
            num_stationary=p.num_stationary,
            num_mobile=int(round(p.num_stationary * frac / (1.0 - frac))),
            routes=p.routes,
            router_count=p.router_count,
            underlay_seed=underlay_seed,
            seed=seeds[(frac, naming)],
            routing_policy=p.routing_policy,
            reuse_underlay=sweep.reuse_underlay,
        )
        for frac in p.fractions
        for naming in ("scrambled", "clustered")
    ]
    results = sweep_map(_fig7_point, points)
    for frac, scr, clu in zip(p.fractions, results[0::2], results[1::2]):
        for stats in (scr["cache_stats"], clu["cache_stats"]):
            for k in cache_totals:
                cache_totals[k] += stats[k]
        table.add_row(
            **{
                "M/N (%)": round(100 * frac, 1),
                "hops scrambled": scr["hops"],
                "hops clustered": clu["hops"],
                "cost scrambled": scr["cost"],
                "cost clustered": clu["cost"],
                "RDP hops": scr["hops"] / clu["hops"] if clu["hops"] else float("nan"),
                "RDP cost": scr["cost"] / clu["cost"] if clu["cost"] else float("nan"),
                "res scrambled": scr["resolutions"],
                "res clustered": clu["resolutions"],
            }
        )
    lookups = cache_totals["hits"] + cache_totals["misses"]
    cache_totals["hit_rate"] = (
        cache_totals["hits"] / lookups if lookups else float("nan")
    )
    table.add_cache_footer(cache_totals, label="oracle cache (all points)")
    tel = active_telemetry()
    if tel is not None:
        # Mirror the sweep-wide cache totals into the session registry so
        # the run manifest's cache_stats section covers this experiment.
        record_cache_stats(tel.metrics, cache_totals, ratios=("hit_rate",))
    maybe_add_phase_footer(table, ("build", "warmup", "route"))
    maybe_add_nodeload_footer(table, ("routed", "detour"))
    return table
