"""Figure 7: scrambled vs clustered naming — application-level hops and
relative delay penalty (§4.1).

Paper setup: ``N − M = 2,000`` stationary nodes, ``M = 0..8,000`` mobile
(M/N from 0 to 80%), nodes placed randomly on a GT-ITM transit-stub
underlay, 10,000 sample routes between randomly picked stationary nodes.
For each naming scheme the experiment reports the mean application-level
hops (Fig 7a) and the mean path cost; Fig 7(b)'s RDP is the
scrambled/clustered ratio of each, with the knee expected at M/N = 50%
(the ∇ ≥ 1/2 bound of §3 eq. 1).

That measurement, :func:`measure_routes` over a :class:`RoutePoint`, is
the one cold-cache route worker: the eq. (1) check, the staleness and
scaling sweeps and the band-placement ablation (kept here) build their
tables from it too.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Optional, Sequence, Tuple

import numpy as np

from ..core.analysis import clustered_route_is_stationary
from ..core.bristle import BristleNetwork
from ..core.config import BristleConfig
from ..core.mobility import shuffle_all_mobile
from ..core.naming import ClusteredNaming
from ..core.routing import route_preferring_resolved, route_with_resolution
from ..net.underlay import UnderlayBundle, cache_stats_delta
from ..overlay.keyspace import KeySpace
from ..sim.rng import derive_seed
from ..workloads.routes import sample_stationary_pairs
from .common import (
    ResultTable,
    add_sweep_cache_footer,
    driver_profiler,
    maybe_add_nodeload_footer,
    maybe_add_phase_footer,
)
from .parallel import derive_point_seeds, sweep_map, sweep_underlay, warm_shared_underlay

__all__ = [
    "BandPlacementParams",
    "Fig7Params",
    "RoutePoint",
    "measure_naming_scheme",
    "measure_routes",
    "run_band_placement",
    "run_fig7",
]

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


@dataclasses.dataclass(frozen=True)
class RoutePoint:
    """One cold-cache route measurement, §4.1's Fig-7 method.

    ``num_stationary`` + ``num_mobile`` nodes take keys under ``naming``
    (``band_low`` moves a clustered band's lower edge ``L`` off its centred
    default) and sit on the shared underlay bundle of ``(underlay_seed,
    router_count)`` or, with no ``underlay_seed``, on one the network draws
    itself from ``router_count``.  ``routes`` stationary → stationary pairs
    are routed under ``routing_policy`` once per value of ``p_stale``.
    """

    naming: str
    num_stationary: int
    num_mobile: int
    routes: int
    seed: int
    router_count: int
    underlay_seed: Optional[int] = None
    routing_policy: str = "greedy"
    p_stale: Tuple[float, ...] = (1.0,)
    band_low: Optional[int] = None


#: Fig 2's greedy rule and §3's prefer-resolved policy, by name.
_POLICIES = {"greedy": route_with_resolution, "prefer_resolved": route_preferring_resolved}


def mobile_for(num_stationary: int, fraction: float) -> int:
    """Mobile nodes beside ``num_stationary`` stationary ones at M/N = ``fraction``."""
    return int(round(num_stationary * fraction / (1.0 - fraction)))


def measure_routes(pt: RoutePoint, underlay: Optional[UnderlayBundle] = None) -> Dict[str, Any]:
    """Build ``pt``'s network, move every mobile node once (so every cache
    is cold), sample its routes and route each pair once per ``p_stale``,
    drawing that value's coins from its own ``stale.{p_stale}`` stream.

    Returns ``"levels"`` — per ``p_stale`` the mean ``hops``, ``cost`` and
    ``resolutions``, and ``with_res``, the routes that needed a resolution
    — ``"unsafe"``, the routes eq. (1) predicts need one (clustered naming;
    0 otherwise), and ``"cache_stats"``, the oracle's counters over the
    point: a delta when the underlay outlives it.  The oracle is pre-warmed
    with the attachment routers of every member, the exact source set the
    hop costs can touch, so the per-hop distance reads hit a batch-computed
    cache.  An explicit ``underlay`` replaces the point's.
    """
    if underlay is None and pt.underlay_seed is not None:
        underlay = sweep_underlay(pt.underlay_seed, pt.router_count)
    prof = driver_profiler()
    cfg = BristleConfig(seed=pt.seed, naming=pt.naming, p_stale=1.0)
    scheme = None
    if pt.band_low is not None:
        nabla = pt.num_stationary / (pt.num_stationary + pt.num_mobile)
        scheme = ClusteredNaming(KeySpace(cfg.key_bits, cfg.digit_bits), nabla, pt.band_low)
    stats_before = underlay.oracle.cache_stats() if underlay is not None else None
    with prof.phase("build"):
        net = BristleNetwork(
            cfg,
            pt.num_stationary,
            pt.num_mobile,
            underlay=underlay,
            router_count=None if underlay is not None else pt.router_count,
            naming_scheme=scheme,
        )
        shuffle_all_mobile(net)
    with prof.phase("warmup"):
        # One batched pass over the post-move routers.
        # repro-lint: disable=BRS004 the point's own oracle, or a shared one warm_shared_underlay filled before the fork (all hits)
        net.prewarm_oracle()
    route = _POLICIES[pt.routing_policy]
    pairs = sample_stationary_pairs(net.stationary_keys, pt.routes, net.rng)
    levels = []
    with prof.phase("route"):
        for p_stale in pt.p_stale:
            hops, costs, res = [], [], []
            for s, t in pairs:
                trace = route(net, s, t, p_stale=p_stale, stale_stream=f"stale.{p_stale}")
                hops.append(trace.app_hops)
                costs.append(trace.path_cost)
                res.append(trace.resolutions)
            levels.append({
                "hops": float(np.mean(hops)),
                "cost": float(np.mean(costs)),
                "resolutions": float(np.mean(res)),
                "with_res": int(np.count_nonzero(res)),
            })
    naming = net.naming
    unsafe = 0
    if isinstance(naming, ClusteredNaming):
        unsafe = sum(
            not clustered_route_is_stationary(s, t, naming.low, naming.high, net.space.size)
            for s, t in pairs
        )
    after = net.oracle.cache_stats()
    return {
        "levels": levels,
        "unsafe": unsafe,
        "cache_stats": (
            cache_stats_delta(stats_before, after) if stats_before is not None else after
        ),
    }


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
    """One Figure-7 cell: the ``p_stale = 1`` level of :func:`measure_routes`
    (mean ``hops``, ``cost`` and ``resolutions``; ``with_res``) with its
    ``cache_stats``."""
    point = RoutePoint(
        naming, num_stationary, num_mobile, routes, seed, router_count,
        routing_policy=routing_policy,
    )
    res = measure_routes(point, underlay)
    return {**res["levels"][0], "cache_stats": res["cache_stats"]}


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
    for frac in p.fractions:
        if frac >= 1.0:
            raise ValueError("mobile fraction must be < 1")
    phases_before = driver_profiler().wall_times()
    underlay_seed = derive_seed(p.seed, "underlay")
    seeds = derive_point_seeds(
        p.seed, list(p.fractions), variants=("scrambled", "clustered")
    )
    warmed = warm_shared_underlay(underlay_seed, p.router_count)
    points = [
        RoutePoint(
            naming,
            p.num_stationary,
            mobile_for(p.num_stationary, frac),
            p.routes,
            seeds[(frac, naming)],
            p.router_count,
            underlay_seed,
            p.routing_policy,
        )
        for frac in p.fractions
        for naming in ("scrambled", "clustered")
    ]
    results = sweep_map(measure_routes, points)
    for frac, scr_res, clu_res in zip(p.fractions, results[0::2], results[1::2]):
        scr, clu = scr_res["levels"][0], clu_res["levels"][0]
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
    add_sweep_cache_footer(table, [warmed] + [res["cache_stats"] for res in results])
    maybe_add_phase_footer(table, ("build", "warmup", "route"), since=phases_before)
    maybe_add_nodeload_footer(table, ("routed", "detour"))
    return table


@dataclasses.dataclass(frozen=True)
class BandPlacementParams:
    num_stationary: int = 250
    fractions: Sequence[float] = (0.3, 0.5, 0.7)
    routes: int = 400
    router_count: int = 300
    seed: int = 41


def run_band_placement(params: Optional[BandPlacementParams] = None) -> ResultTable:
    """Centred vs origin-anchored stationary bands under clustered naming.

    The paper fixes only the band *width* (``U − L = ∇·ρ``) and leaves its
    position open ("L and U are the pre-defined system parameters").
    Greedy ring routing wraps past key 0, so a band pushed against the ring
    origin (L = 1, every mobile key above U) meets a different wrap
    geometry than a centred one (mobile keys at both ends).  Every point
    uses ``p.seed`` itself and draws its own underlay.
    """
    p = params if params is not None else BandPlacementParams()
    table = ResultTable(
        title="Extension — clustered-band placement ablation",
        columns=[
            "M/N (%)",
            "centred hops",
            "origin hops",
            "centred res",
            "origin res",
        ],
        notes=[
            f"{p.num_stationary} stationary nodes, {p.routes} routes per "
            "point; 'centred' puts the band mid-ring (mobile keys at both "
            "ends), 'origin' anchors L ≈ 1 (all mobile keys above U)",
        ],
    )
    points = [
        RoutePoint(
            "clustered",
            p.num_stationary,
            mobile_for(p.num_stationary, frac),
            p.routes,
            p.seed,
            p.router_count,
            band_low=low,
        )
        for frac in p.fractions
        for low in (None, 1)
    ]
    results = sweep_map(measure_routes, points)
    for frac, centred, origin in zip(p.fractions, results[0::2], results[1::2]):
        c, o = centred["levels"][0], origin["levels"][0]
        table.add_row(
            **{
                "M/N (%)": round(100 * frac, 1),
                "centred hops": c["hops"],
                "origin hops": o["hops"],
                "centred res": c["resolutions"],
                "origin res": o["resolutions"],
            }
        )
    return table
