"""The five cold-cache route loops the route-sweep worker replaced.

Figure 7, the eq. (1) check, the band-placement ablation, the staleness
sweep and the scaling sweep each built a network, moved every mobile node
once, sampled stationary → stationary pairs and routed them in their own
loop, in one process.  Same seeds, streams, underlays and oracle calls,
so every rendered table must be equal to the entry's, footers included.
"""

from __future__ import annotations

import math
from typing import Dict, Optional

import numpy as np

from repro.core.analysis import clustered_route_is_stationary
from repro.core.bristle import BristleNetwork
from repro.core.config import BristleConfig
from repro.core.mobility import shuffle_all_mobile
from repro.core.naming import ClusteredNaming
from repro.core.routing import route_preferring_resolved, route_with_resolution
from repro.experiments.common import ResultTable
from repro.experiments.parallel import active_sweep, derive_point_seeds
from repro.net.underlay import (
    UnderlayBundle,
    build_underlay,
    cache_stats_delta,
    shared_underlay_cache,
)
from repro.overlay.keyspace import KeySpace
from repro.sim.rng import derive_seed
from repro.workloads.routes import sample_stationary_pairs


def _bundle(underlay_seed: int, routers: int) -> UnderlayBundle:
    if active_sweep().reuse_underlay:
        return shared_underlay_cache().get(underlay_seed, routers)
    return build_underlay(underlay_seed, routers)


def _fig7_cell(naming, num_stationary, num_mobile, routes, seed, policy, bundle):
    cfg = BristleConfig(seed=seed, naming=naming, p_stale=1.0)
    before = bundle.oracle.cache_stats()
    net = BristleNetwork(cfg, num_stationary, num_mobile, underlay=bundle)
    shuffle_all_mobile(net)
    net.prewarm_oracle()
    route_fn = route_preferring_resolved if policy == "prefer_resolved" else route_with_resolution
    pairs = sample_stationary_pairs(net.stationary_keys, routes, net.rng)
    hops = np.empty(len(pairs), dtype=np.float64)
    costs = np.empty(len(pairs), dtype=np.float64)
    resolutions = np.empty(len(pairs), dtype=np.float64)
    for i, (s, t) in enumerate(pairs):
        trace = route_fn(net, s, t)
        hops[i] = trace.app_hops
        costs[i] = trace.path_cost
        resolutions[i] = trace.resolutions
    return {
        "hops": float(hops.mean()),
        "cost": float(costs.mean()),
        "resolutions": float(resolutions.mean()),
        "cache_stats": cache_stats_delta(before, net.oracle.cache_stats()),
    }


def fig7(p) -> ResultTable:
    """``run_fig7(p)``: one cell per (fraction, naming), shared underlay."""
    table = ResultTable(
        title="Figure 7 — scrambled vs clustered naming",
        columns=[
            "M/N (%)", "hops scrambled", "hops clustered", "cost scrambled",
            "cost clustered", "RDP hops", "RDP cost", "res scrambled", "res clustered",
        ],
        notes=[
            f"{p.num_stationary} stationary nodes, {p.routes} routes per point, "
            f"~{p.router_count}-router transit-stub underlay "
            "(paper: 2,000 stationary / 10,000 routes)",
        ],
    )
    totals = dict.fromkeys(("hits", "misses", "evictions", "dijkstra_runs", "batch_calls"), 0.0)
    underlay_seed = derive_seed(p.seed, "underlay")
    seeds = derive_point_seeds(p.seed, list(p.fractions), variants=("scrambled", "clustered"))
    if active_sweep().reuse_underlay:
        bundle = shared_underlay_cache().get(underlay_seed, p.router_count)
        before = bundle.oracle.cache_stats()
        bundle.oracle.prewarm(bundle.topology.attachment_points())
        for k, v in cache_stats_delta(before, bundle.oracle.cache_stats()).items():
            if k in totals:
                totals[k] += v
    for frac in p.fractions:
        num_mobile = int(round(p.num_stationary * frac / (1.0 - frac)))
        cells = {}
        for naming in ("scrambled", "clustered"):
            cells[naming] = _fig7_cell(
                naming, p.num_stationary, num_mobile, p.routes, seeds[(frac, naming)],
                p.routing_policy, _bundle(underlay_seed, p.router_count),
            )
            for k in totals:
                totals[k] += cells[naming]["cache_stats"][k]
        scr, clu = cells["scrambled"], cells["clustered"]
        table.add_row(**{
            "M/N (%)": round(100 * frac, 1),
            "hops scrambled": scr["hops"],
            "hops clustered": clu["hops"],
            "cost scrambled": scr["cost"],
            "cost clustered": clu["cost"],
            "RDP hops": scr["hops"] / clu["hops"] if clu["hops"] else float("nan"),
            "RDP cost": scr["cost"] / clu["cost"] if clu["cost"] else float("nan"),
            "res scrambled": scr["resolutions"],
            "res clustered": clu["resolutions"],
        })
    lookups = totals["hits"] + totals["misses"]
    totals["hit_rate"] = totals["hits"] / lookups if lookups else float("nan")
    table.add_cache_footer(totals, label="oracle cache (all points)")
    return table


def eq1(num_stationary: int, fractions, routes: int, seed: int) -> ResultTable:
    """``run_eq1_check``: prefer-resolved routes under clustered naming."""
    table = ResultTable(
        title="Bound check — §3 eq. (1), clustered naming",
        columns=["M/N (%)", "nabla", "routes w/ resolution (%)", "predicted unsafe (%)"],
        notes=[f"{num_stationary} stationary nodes, {routes} routes per point"],
    )
    underlay_seed = derive_seed(seed, "underlay")
    seeds = derive_point_seeds(seed, list(fractions))
    for frac in fractions:
        num_mobile = int(round(num_stationary * frac / (1 - frac)))
        cfg = BristleConfig(seed=seeds[(frac, "")], naming="clustered", p_stale=1.0)
        net = BristleNetwork(
            cfg, num_stationary, num_mobile, underlay=_bundle(underlay_seed, 200)
        )
        shuffle_all_mobile(net)
        pairs = sample_stationary_pairs(net.stationary_keys, routes, net.rng)
        with_res = unsafe = 0
        naming = net.naming
        for s, t in pairs:
            if route_preferring_resolved(net, s, t).resolutions > 0:
                with_res += 1
            if not clustered_route_is_stationary(s, t, naming.low, naming.high, net.space.size):
                unsafe += 1
        table.add_row(**{
            "M/N (%)": round(100 * frac, 1),
            "nabla": num_stationary / (num_stationary + num_mobile),
            "routes w/ resolution (%)": 100.0 * with_res / routes,
            "predicted unsafe (%)": 100.0 * unsafe / routes,
        })
    return table


def band_placement(p) -> ResultTable:
    """``run_band_placement(p)``: ``p.seed`` verbatim, own underlays."""
    table = ResultTable(
        title="Extension — clustered-band placement ablation",
        columns=["M/N (%)", "centred hops", "origin hops", "centred res", "origin res"],
        notes=[
            f"{p.num_stationary} stationary nodes, {p.routes} routes per "
            "point; 'centred' puts the band mid-ring (mobile keys at both "
            "ends), 'origin' anchors L ≈ 1 (all mobile keys above U)",
        ],
    )
    for frac in p.fractions:
        num_mobile = int(round(p.num_stationary * frac / (1 - frac)))
        results = {}
        for placement in ("centred", "origin"):
            cfg = BristleConfig(seed=p.seed, naming="clustered", p_stale=1.0)
            space = KeySpace(bits=cfg.key_bits, digit_bits=cfg.digit_bits)
            nabla = p.num_stationary / (p.num_stationary + num_mobile)
            low = None if placement == "centred" else 1
            net = BristleNetwork(
                cfg, p.num_stationary, num_mobile, router_count=p.router_count,
                naming_scheme=ClusteredNaming(space, nabla=nabla, low=low),
            )
            shuffle_all_mobile(net)
            pairs = sample_stationary_pairs(net.stationary_keys, p.routes, net.rng)
            hops, res = [], []
            for s, t in pairs:
                trace = route_with_resolution(net, s, t)
                hops.append(trace.app_hops)
                res.append(trace.resolutions)
            results[placement] = (float(np.mean(hops)), float(np.mean(res)))
        table.add_row(**{
            "M/N (%)": round(100 * frac, 1),
            "centred hops": results["centred"][0],
            "origin hops": results["origin"][0],
            "centred res": results["centred"][1],
            "origin res": results["origin"][1],
        })
    return table


def staleness(p) -> ResultTable:
    """``run_staleness_sweep(p)``: one network, one pair sample, one
    ``stale.{p_stale}`` coin stream per level."""
    cfg = BristleConfig(seed=p.seed, naming="scrambled")
    net = BristleNetwork(cfg, p.num_stationary, p.num_mobile, router_count=p.router_count)
    shuffle_all_mobile(net)
    pairs = sample_stationary_pairs(net.stationary_keys, p.routes, net.rng)
    table = ResultTable(
        title="Extension — route cost vs cache staleness (early-binding payoff)",
        columns=["p_stale", "mean hops", "mean cost", "mean resolutions", "cost vs warm (x)"],
        notes=[
            f"{p.num_stationary}+{p.num_mobile} nodes, {p.routes} "
            "stationary→stationary routes per point",
        ],
    )
    warm_cost: Optional[float] = None
    for p_stale in p.p_stale_values:
        hops, costs, res = [], [], []
        for s, t in pairs:
            trace = route_with_resolution(
                net, s, t, p_stale=p_stale, stale_stream=f"stale.{p_stale}"
            )
            hops.append(trace.app_hops)
            costs.append(trace.path_cost)
            res.append(trace.resolutions)
        mean_cost = float(np.mean(costs))
        if warm_cost is None:
            warm_cost = mean_cost
        table.add_row(**{
            "p_stale": p_stale,
            "mean hops": float(np.mean(hops)),
            "mean cost": mean_cost,
            "mean resolutions": float(np.mean(res)),
            "cost vs warm (x)": mean_cost / warm_cost if warm_cost else float("nan"),
        })
    return table


def scaling(p) -> ResultTable:
    """``run_scaling(p)``: route hops vs N, both schemes, shared underlays."""
    table = ResultTable(
        title="Extension — end-to-end scaling in N (fixed M/N)",
        columns=[
            "N", "log2 N", "hops scrambled", "hops clustered",
            "scrambled / log2 N", "clustered / log2 N",
        ],
        notes=[
            f"mobile share {p.mobile_share:.0%}, {p.routes} routes per point, "
            "cold caches (p_stale = 1)",
        ],
    )
    underlay_seed = derive_seed(p.seed, "underlay")
    seeds = derive_point_seeds(p.seed, list(p.sizes), variants=("scrambled", "clustered"))
    for n in p.sizes:
        num_mobile = int(round(n * p.mobile_share))
        hops: Dict[str, float] = {}
        for naming in ("scrambled", "clustered"):
            cfg = BristleConfig(seed=seeds[(n, naming)], naming=naming, p_stale=1.0)
            net = BristleNetwork(
                cfg, n - num_mobile, num_mobile,
                underlay=_bundle(underlay_seed, max(150, n // 3)),
            )
            shuffle_all_mobile(net)
            pairs = sample_stationary_pairs(net.stationary_keys, p.routes, net.rng)
            hops[naming] = float(
                np.mean([route_with_resolution(net, s, t).app_hops for s, t in pairs])
            )
        log_n = math.log2(n)
        table.add_row(**{
            "N": n,
            "log2 N": log_n,
            "hops scrambled": hops["scrambled"],
            "hops clustered": hops["clustered"],
            "scrambled / log2 N": hops["scrambled"] / log_n,
            "clustered / log2 N": hops["clustered"] / log_n,
        })
    return table
