"""Extension experiments: Bristle end-to-end scaling in N.

The paper's §2.1 promise: with the clustered naming scheme, a
stationary→stationary route costs ``O(log N)`` application-level hops
even with address resolutions, versus ``O((log N)^2)`` in the naive
design.  :func:`run_scaling` grows the population at a fixed mobile share
and measures the full Fig-2 routing pipeline — if the architecture
delivers, hops divided by ``log₂ N`` stay bounded for the clustered
scheme while the scrambled scheme's normalised cost keeps creeping up
(its per-route resolutions scale with the hop count itself).

:func:`run_scale_mix` drives one large network per seed through rounds
of the whole public operation mix — lease expiry, moves with their LDT
advertisements, leave/join pairs, discoveries under a Zipf (or uniform)
popularity law and routed messages — so the scale runs report hops and
path cost from the same engine every figure uses.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, Optional, Sequence

import numpy as np

from ..core.bristle import BristleNetwork
from ..core.config import BristleConfig
from ..core.mobility import shuffle_all_mobile
from ..core.routing import route_with_resolution
from ..net.underlay import build_underlay, shared_underlay_cache
from ..sim.rng import derive_seed
from ..workloads.routes import sample_stationary_pairs
from .common import ResultTable
from .parallel import active_sweep, derive_point_seeds, sweep_map

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


@dataclasses.dataclass(frozen=True)
class _ScalingPoint:
    """One (population size, naming scheme) cell of the scaling sweep."""

    naming: str
    n: int
    num_stationary: int
    num_mobile: int
    routes: int
    router_count: int
    underlay_seed: int
    seed: int
    reuse_underlay: bool


def _scaling_point(pt: _ScalingPoint) -> float:
    """Module-level (picklable) per-cell worker for :func:`sweep_map`."""
    bundle = (
        shared_underlay_cache().get(pt.underlay_seed, pt.router_count)
        if pt.reuse_underlay
        else build_underlay(pt.underlay_seed, pt.router_count)
    )
    cfg = BristleConfig(seed=pt.seed, naming=pt.naming, p_stale=1.0)
    net = BristleNetwork(cfg, pt.num_stationary, pt.num_mobile, underlay=bundle)
    shuffle_all_mobile(net)
    pairs = sample_stationary_pairs(net.stationary_keys, pt.routes, net.rng)
    hops = [route_with_resolution(net, s, t).app_hops for s, t in pairs]
    return float(np.mean(hops))


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
    sweep = active_sweep()
    underlay_seed = derive_seed(p.seed, "underlay")
    seeds = derive_point_seeds(
        p.seed, list(p.sizes), variants=("scrambled", "clustered")
    )
    points = [
        _ScalingPoint(
            naming=naming,
            n=n,
            num_stationary=n - int(round(n * p.mobile_share)),
            num_mobile=int(round(n * p.mobile_share)),
            routes=p.routes,
            router_count=max(150, n // 3),
            underlay_seed=underlay_seed,
            seed=seeds[(n, naming)],
            reuse_underlay=sweep.reuse_underlay,
        )
        for n in p.sizes
        for naming in ("scrambled", "clustered")
    ]
    results = sweep_map(_scaling_point, points)
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
    per-seed popularity ranking (``0`` is the uniform draw).
    """

    num_stationary: int = 20_000
    num_mobile: int = 8_000
    lookups: int = 10_000
    rounds: int = 8
    seeds: int = 3
    churn_share: float = 0.0
    zipf_s: float = 0.0
    seed: int = 53

    def __post_init__(self) -> None:
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


#: Share of the mobile population that moves each round.
_MOVE_SHARE = 1 / 8
#: Every ``_ROUTE_EVERY``-th lookup pair is also routed end to end.
_ROUTE_EVERY = 16
#: Rounds per lease lifetime: a record not refreshed for this many
#: rounds lapses at the next expiry sweep.
_ROUNDS_PER_TTL = 4


@dataclasses.dataclass(frozen=True)
class _MixPoint:
    """One seed of a scale run."""

    params: ScaleMixParams
    seed: int


def _scale_point(pt: _MixPoint) -> Dict[str, float]:
    """Module-level (picklable) per-seed worker for :func:`sweep_map`."""
    p = pt.params
    net = BristleNetwork(BristleConfig(seed=pt.seed), p.num_stationary, p.num_mobile)
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
        "discover_hops routes app_hops path_cost".split(),
        0.0,
    )
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
            if i % _ROUTE_EVERY == 0:
                trace = route_with_resolution(net, source, target)
                stats["routes"] += 1
                stats["app_hops"] += trace.app_hops
                stats["path_cost"] += trace.path_cost
    return stats


def run_scale_mix(params: Optional[ScaleMixParams] = None) -> ResultTable:
    """The public operation mix at scale, one table row per seed.

    Each seed is one :func:`sweep_map` point that builds its own
    :class:`~repro.core.bristle.BristleNetwork` from a derived child seed,
    so the table is identical whatever the job count.
    """
    p = params if params is not None else ScaleMixParams()
    table = ResultTable(
        title="Extension — the public operation mix at scale",
        columns=[
            "seed",
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
            "routes",
            "app hops",
            "path cost",
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
    points = [_MixPoint(params=p, seed=seeds[(i, "")]) for i in range(p.seeds)]
    for i, s in enumerate(sweep_map(_scale_point, points)):
        table.add_row(
            **{
                "seed": i,
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
                "routes": int(s["routes"]),
                "app hops": s["app_hops"] / max(s["routes"], 1),
                "path cost": s["path_cost"] / max(s["routes"], 1),
            }
        )
    return table
