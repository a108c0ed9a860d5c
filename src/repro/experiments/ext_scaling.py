"""Extension experiments: Bristle end-to-end scaling in N.

The paper's §2.1 promise: with the clustered naming scheme, a
stationary→stationary route costs ``O(log N)`` application-level hops
even with address resolutions, versus ``O((log N)^2)`` in the naive
design.  :func:`run_scaling` grows the population at a fixed mobile share
and measures the full Fig-2 routing pipeline — if the architecture
delivers, hops divided by ``log₂ N`` stay bounded for the clustered
scheme while the scrambled scheme's normalised cost keeps creeping up
(its per-route resolutions scale with the hop count itself).

:func:`run_scale_mix` drives one network per (seed, stationary-layer
substrate) through rounds of the whole public operation mix — lease
expiry, moves with their LDT advertisements, leave/join pairs,
discoveries under a Zipf (or uniform) popularity law and routed messages
— so the scale runs, the substrate comparison (§2.1: the stationary layer
"can be any HS-P2P") and the record-holder hotspot study ("Rendezvous
Regions": popular keys turn their holders into hot spots) report hops,
cost, state and holder load from the same engine every figure uses.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..core.bristle import BristleNetwork
from ..core.config import BristleConfig
from ..core.routing import route_with_resolution
from ..overlay.factory import OVERLAY_NAMES
from ..sim.metrics import QuantileSketch
from ..sim.nodestats import imbalance_stats
from ..sim.rng import derive_seed
from .common import (
    ResultTable,
    driver_profiler,
    maybe_add_nodeload_footer,
    maybe_add_phase_footer,
)
from .fig7_naming import RoutePoint, measure_routes
from .parallel import derive_point_seeds, sweep_map, warm_shared_underlay

__all__ = [
    "ScaleMixParams",
    "ScalingParams",
    "run_scale_mix",
    "run_scaling",
]


@dataclasses.dataclass(frozen=True)
class ScalingParams:
    sizes: Sequence[int] = (250, 500, 1000, 2000)
    mobile_share: float = 0.5
    routes: int = 400
    seed: int = 47


def run_scaling(params: Optional[ScalingParams] = None) -> ResultTable:
    """Route hops vs N for both naming schemes at fixed M/N.

    The sizes × schemes grid fans out through :func:`sweep_map`; each cell
    derives its own child seed (decoupling the two schemes' RNG streams)
    and sizes sharing a router count share one prebuilt underlay bundle.
    """
    p = params if params is not None else ScalingParams()
    if not 0.0 <= p.mobile_share < 1.0:
        raise ValueError("mobile_share must be in [0, 1)")
    table = ResultTable(
        title="Extension — end-to-end scaling in N (fixed M/N)",
        columns=[
            "N",
            "log2 N",
            "hops scrambled",
            "hops clustered",
            "scrambled / log2 N",
            "clustered / log2 N",
        ],
        notes=[
            f"mobile share {p.mobile_share:.0%}, {p.routes} routes per point, "
            "cold caches (p_stale = 1)",
        ],
    )
    underlay_seed = derive_seed(p.seed, "underlay")
    for routers in sorted({max(150, n // 3) for n in p.sizes}):
        warm_shared_underlay(underlay_seed, routers)
    seeds = derive_point_seeds(
        p.seed, list(p.sizes), variants=("scrambled", "clustered")
    )
    points = [
        RoutePoint(
            naming,
            n - int(round(n * p.mobile_share)),
            int(round(n * p.mobile_share)),
            p.routes,
            seeds[(n, naming)],
            max(150, n // 3),
            underlay_seed,
        )
        for n in p.sizes
        for naming in ("scrambled", "clustered")
    ]
    results = [res["levels"][0]["hops"] for res in sweep_map(measure_routes, points)]
    for n, scr, clu in zip(p.sizes, results[0::2], results[1::2]):
        log_n = math.log2(n)
        table.add_row(
            **{
                "N": n,
                "log2 N": log_n,
                "hops scrambled": scr,
                "hops clustered": clu,
                "scrambled / log2 N": scr / log_n,
                "clustered / log2 N": clu / log_n,
            }
        )
    return table




@dataclasses.dataclass(frozen=True)
class ScaleMixParams:
    """Population and operation mix of the public-path scale runs.

    ``lookups`` discoveries are spread evenly over ``rounds``;
    ``churn_share`` of the mobile population leaves and rejoins every
    round; lookup targets follow a Zipf law of exponent ``zipf_s`` over a
    per-seed popularity ranking (``0`` is the uniform draw).  Every seed
    runs once per stationary-layer substrate in ``overlays``, all under
    ``naming``; a seed's child seed does not depend on the substrate, so
    the substrates of one seed face one identical operation stream.
    """

    num_stationary: int = 20_000
    num_mobile: int = 8_000
    lookups: int = 10_000
    rounds: int = 8
    seeds: int = 3
    churn_share: float = 0.0
    zipf_s: float = 0.0
    seed: int = 53
    overlays: Tuple[str, ...] = ("chord",)
    naming: str = "clustered"

    def __post_init__(self) -> None:
        if self.num_stationary < 2:
            raise ValueError("num_stationary must be >= 2")
        if self.num_mobile < 1:
            raise ValueError("num_mobile must be >= 1")
        if self.lookups < 1:
            raise ValueError("lookups must be >= 1")
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if self.seeds < 1:
            raise ValueError("seeds must be >= 1")
        if not 0.0 <= self.churn_share < 1.0:
            raise ValueError("churn_share must be in [0, 1)")
        if not self.zipf_s >= 0.0:
            raise ValueError("zipf_s must be >= 0")
        if not self.overlays or not set(self.overlays) <= set(OVERLAY_NAMES):
            raise ValueError(f"overlays must be a non-empty subset of {OVERLAY_NAMES}")
        BristleConfig(naming=self.naming)  # raises on an unknown scheme


#: Share of the mobile population that moves each round.
_MOVE_SHARE = 1 / 8
#: Every ``_ROUTE_EVERY``-th lookup pair is also routed end to end.
_ROUTE_EVERY = 16
#: Rounds per lease lifetime: a record not refreshed for this many
#: rounds lapses at the next expiry sweep.
_ROUNDS_PER_TTL = 4


@dataclasses.dataclass(frozen=True)
class _MixPoint:
    """One (seed, stationary-layer substrate) cell of a scale run."""

    params: ScaleMixParams
    seed: int
    overlay: str


def _scale_point(pt: _MixPoint) -> Dict[str, float]:
    """Module-level (picklable) per-cell worker for :func:`sweep_map`.

    The holder-load, hop-tail, discovery-cost and state reads draw no
    random number, so they leave the operation stream as it is.
    """
    p = pt.params
    prof = driver_profiler()
    cfg = BristleConfig(
        seed=pt.seed, naming=p.naming, stationary_layer_overlay=pt.overlay
    )
    with prof.phase("build"):
        net = BristleNetwork(cfg, p.num_stationary, p.num_mobile)
        net.setup_random_registrations()
    gen = net.rng.stream("scale.mix")
    # Popularity ranks over the mobile keys, fixed for the run: leavers
    # rejoin under their own key, so the population never changes.
    ranked = [net.mobile_keys[i] for i in gen.permutation(p.num_mobile).tolist()]
    cdf = np.cumsum(np.arange(1, p.num_mobile + 1, dtype=np.float64) ** -p.zipf_s)
    cdf /= cdf[-1]
    hot_ranks = max(1, p.num_mobile // 100)
    dt = net.config.state_ttl / _ROUNDS_PER_TTL
    movers = int(p.num_mobile * _MOVE_SHARE)
    churn = int(round(p.churn_share * p.num_mobile))
    stats = dict.fromkeys(
        "moves expired churned ldt_messages ldt_depth trees hits hot "
        "discover_hops discover_cost routes app_hops path_cost".split(),
        0.0,
    )
    hop_sketch = QuantileSketch()
    with prof.phase("measure"):
        for r in range(p.rounds):
            net.advance_time(dt)
            stats["expired"] += len(net.directory.expire_leases(net.now))
            for key in gen.choice(net.mobile_keys, movers, replace=False).tolist():
                report = net.move(key)
                stats["moves"] += 1
                if report.ldt is not None:
                    stats["trees"] += 1
                    stats["ldt_messages"] += report.ldt_messages
                    stats["ldt_depth"] += report.ldt_depth
            for key in gen.choice(net.mobile_keys, churn, replace=False).tolist():
                capacity = net.node(key).capacity
                net.leave_mobile_node(key)
                net.join_mobile_node(key, capacity)
                stats["churned"] += 1
            count = (r + 1) * p.lookups // p.rounds - r * p.lookups // p.rounds
            sources = gen.integers(p.num_stationary, size=count).tolist()
            ranks = np.searchsorted(cdf, gen.random(count), side="right").tolist()
            for i, (si, rank) in enumerate(zip(sources, ranks)):
                source, target = net.stationary_keys[si], ranked[rank]
                found = net.discover(source, target)
                stats["hits"] += found.found
                stats["hot"] += rank < hot_ranks
                stats["discover_hops"] += found.hop_count
                hop_sketch.observe(found.hop_count)
                # Per pair, not batched: a batched gather stores a full
                # oracle row per distinct source (about half again the
                # peak memory at the default scale-run size).
                stats["discover_cost"] += sum(
                    net.network_distance_between_keys(a, b)
                    for a, b in zip(found.hops, found.hops[1:])
                )
                if i % _ROUTE_EVERY == 0:
                    trace = route_with_resolution(net, source, target)
                    stats["routes"] += 1
                    stats["app_hops"] += trace.app_hops
                    stats["path_cost"] += trace.path_cost
    # Holder load over the whole stationary population (zero-filled),
    # from this network's own tally: every discover and every route
    # resolution charges the record holder it detoured through.
    index = {k: i for i, k in enumerate(net.stationary_keys)}
    loads = np.zeros(p.num_stationary, dtype=np.float64)
    for holder, n in net.resolution_load.items():
        loads[index[holder]] = n
    load = imbalance_stats(loads)
    stats.update(
        detours=load["total"],
        max_mean=load["max_mean"],
        gini=load["gini"],
        top_share=load["max"] / load["total"] if load["total"] else 0.0,
        hops_p50=hop_sketch.quantile(50),
        hops_p99=hop_sketch.quantile(99),
        state=net.stationary_layer.state_size_stats()["mean"],
    )
    return stats


def run_scale_mix(params: Optional[ScaleMixParams] = None) -> ResultTable:
    """The public operation mix at scale, one table row per (seed, overlay).

    Each row is one :func:`sweep_map` point that builds its own
    :class:`~repro.core.bristle.BristleNetwork` from a derived child seed,
    so the table is identical whatever the job count.
    """
    p = params if params is not None else ScaleMixParams()
    table = ResultTable(
        title="Extension — the public operation mix at scale",
        columns=[
            "seed",
            "overlay",
            "naming",
            "N",
            "moves",
            "expired",
            "leaves",
            "joins",
            "LDT deliveries",
            "mean depth",
            "lookups",
            "hit rate",
            "hot share",
            "discover hops",
            "hops p50",
            "hops p99",
            "discover cost",
            "routes",
            "app hops",
            "path cost",
            "detours",
            "max/mean",
            "gini",
            "top-1 share (%)",
            "mean state/node",
        ],
        notes=[
            f"{p.num_stationary}+{p.num_mobile} nodes; each of {p.rounds} rounds "
            f"expires leases older than {_ROUNDS_PER_TTL} rounds, moves 1/"
            f"{1 / _MOVE_SHARE:.0f} of the mobile nodes and makes a share "
            f"{p.churn_share:.4g} leave and rejoin; {p.lookups} discoveries "
            f"in all (Zipf s={p.zipf_s}), every {_ROUTE_EVERY}th also routed; "
            "hot share = lookups on the top 1% of popularity ranks",
        ],
    )
    seeds = derive_point_seeds(p.seed, list(range(p.seeds)))
    points = [
        _MixPoint(params=p, seed=seeds[(i, "")], overlay=overlay)
        for i in range(p.seeds)
        for overlay in p.overlays
    ]
    for j, (pt, s) in enumerate(zip(points, sweep_map(_scale_point, points))):
        routes = max(s["routes"], 1)
        table.add_row(
            **{
                "seed": j // len(p.overlays),
                "overlay": pt.overlay,
                "naming": p.naming,
                "N": p.num_stationary + p.num_mobile,
                "moves": int(s["moves"]),
                "expired": int(s["expired"]),
                "leaves": int(s["churned"]),
                "joins": int(s["churned"]),
                "LDT deliveries": int(s["ldt_messages"]),
                "mean depth": s["ldt_depth"] / max(s["trees"], 1),
                "lookups": p.lookups,
                "hit rate": s["hits"] / p.lookups,
                "hot share": s["hot"] / p.lookups,
                "discover hops": s["discover_hops"] / p.lookups,
                "hops p50": s["hops_p50"],
                "hops p99": s["hops_p99"],
                "discover cost": s["discover_cost"] / p.lookups,
                "routes": int(s["routes"]),
                "app hops": s["app_hops"] / routes,
                "path cost": s["path_cost"] / routes,
                "detours": int(s["detours"]),
                "max/mean": s["max_mean"],
                "gini": s["gini"],
                "top-1 share (%)": 100.0 * s["top_share"],
                "mean state/node": s["state"],
            }
        )
    maybe_add_phase_footer(table, ("build", "measure"))
    maybe_add_nodeload_footer(table, ("detour", "registrations"))
    return table
