"""Table 1, measured: Type A vs Type B vs Bristle on one shared workload.

The paper's Table 1 is qualitative (infrastructure, scalability,
reliability, performance, deployment, end-to-end semantics).  This
experiment quantifies each row the simulation can speak to:

* **end-to-end semantics** — fraction of lookups (addressed to the node
  keys correspondents learned *before* the churn) that still reach the
  intended node after every mobile node moved.  Type A breaks this (the
  key is retired on re-join); Bristle and Type B preserve it.
* **performance** — mean underlay path cost of those lookups.  Type B
  pays the Mobile-IP triangular route on every hop to a moved node;
  Bristle pays a one-time discovery (and nothing once caches are warm —
  reported separately).
* **maintenance overhead** — protocol messages per move: Type A's
  ``2·O(log N)`` re-join, Type B's single home-agent registration,
  Bristle's publish + LDT advertisement.
* **reliability** — delivery rate when a fraction of the location
  infrastructure fails: Type B home agents vs Bristle directory holders
  (whose records are replicated).
* **scalability** — the maximum per-node relay/storage load of the
  location infrastructure.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

import numpy as np

from ..core.routing import route_with_resolution
from ..net.underlay import shared_underlay_cache
from ..workloads.scenarios import ComparisonScenario, build_comparison_scenario
from .common import (
    ResultTable,
    driver_profiler,
    maybe_add_nodeload_footer,
    maybe_add_phase_footer,
)
from .parallel import active_sweep, sweep_map

__all__ = ["Table1Params", "run_table1"]


@dataclasses.dataclass(frozen=True)
class Table1Params:
    num_stationary: int = 200
    num_mobile: int = 200
    lookups: int = 600
    agent_failure_fraction: float = 0.2
    seed: int = 4
    #: Table 1 compares the architectures, not the §3 naming optimisation;
    #: scrambled keys spread the location directory uniformly over the
    #: stationary layer (clustered naming would concentrate every mobile
    #: record at the stationary band's edge nodes — see DESIGN.md).
    naming: str = "scrambled"


def _bristle_metrics(scenario: ComparisonScenario, p: Table1Params) -> Dict[str, float]:
    net = scenario.bristle
    net.setup_random_registrations()
    move_messages: List[int] = []
    for mk in list(net.mobile_keys):
        rep = net.move(mk, advertise=True)
        move_messages.append(rep.total_messages)
    gen = net.rng.stream("table1.lookups")
    stationary = net.stationary_keys
    mobile = net.mobile_keys
    delivered = 0
    costs: List[float] = []
    warm_costs: List[float] = []
    resolutions = 0
    for _ in range(p.lookups):
        src = stationary[int(gen.integers(len(stationary)))]
        tgt = mobile[int(gen.integers(len(mobile)))]
        trace = route_with_resolution(net, src, tgt)
        if trace.success:
            delivered += 1
            costs.append(trace.path_cost)
            resolutions += trace.resolutions
        # Warm caches: the resolved address is remembered (end-to-end
        # semantics preserved), so repeat traffic goes direct.
        warm = route_with_resolution(net, src, tgt, p_stale=0.0)
        if warm.success:
            warm_costs.append(warm.path_cost)
    # Reliability: fail a fraction of directory holders; replicated
    # records survive unless every holder of a key is down.
    holders = sorted(net.directory.holder_load())
    n_fail = int(len(holders) * p.agent_failure_fraction)
    failed = set(net.rng.sample("table1.failures", holders, n_fail)) if n_fail else set()
    survivable = 0
    for mk in mobile:
        if any(h not in failed for h in net.directory.holders_for(mk)):
            survivable += 1
    load = net.resolution_load
    return {
        "end_to_end": delivered / p.lookups,
        "mean_cost": float(np.mean(costs)) if costs else float("nan"),
        "warm_cost": float(np.mean(warm_costs)) if warm_costs else float("nan"),
        "messages_per_move": float(np.mean(move_messages)) if move_messages else 0.0,
        "delivery_under_failure": survivable / len(mobile) if mobile else 1.0,
        "max_infra_load": float(max(load.values())) if load else 0.0,
    }


def _type_a_metrics(scenario: ComparisonScenario, p: Table1Params) -> Dict[str, float]:
    ta = scenario.type_a
    # Correspondents learn keys now, before the churn.
    known_keys = {host: ta.key_of[host] for host in scenario.mobile_hosts}
    move_messages: List[int] = []
    for host in sorted(scenario.mobile_hosts):
        move_messages.append(ta.move(host).join_messages)
    gen = ta.rng.stream("table1.lookups")
    stationary_hosts = sorted(set(ta.key_of) - scenario.mobile_hosts)
    mobile_hosts = sorted(scenario.mobile_hosts)
    delivered = 0
    costs: List[float] = []
    for _ in range(p.lookups):
        src = stationary_hosts[int(gen.integers(len(stationary_hosts)))]
        tgt_host = mobile_hosts[int(gen.integers(len(mobile_hosts)))]
        result = ta.lookup(src, known_keys[tgt_host])
        if result.reached_intended:
            delivered += 1
            costs.append(result.path_cost)
    return {
        "end_to_end": delivered / p.lookups,
        "mean_cost": float(np.mean(costs)) if costs else float("nan"),
        # Repeat traffic cannot warm anything: the old key stays dead.
        "warm_cost": float("nan"),
        "messages_per_move": float(np.mean(move_messages)) if move_messages else 0.0,
        # Type A has no location infrastructure: nothing to fail, nothing
        # to overload — but also nothing to restore reachability.
        "delivery_under_failure": delivered / p.lookups,
        "max_infra_load": 0.0,
    }


def _type_b_metrics(scenario: ComparisonScenario, p: Table1Params) -> Dict[str, float]:
    tb = scenario.type_b
    for host in sorted(scenario.mobile_hosts):
        tb.move(host)
    gen = tb.rng.stream("table1.lookups")
    stationary_hosts = sorted(set(tb.key_of) - scenario.mobile_hosts)
    mobile_hosts = sorted(scenario.mobile_hosts)
    delivered = 0
    costs: List[float] = []
    for _ in range(p.lookups):
        src = stationary_hosts[int(gen.integers(len(stationary_hosts)))]
        tgt_host = mobile_hosts[int(gen.integers(len(mobile_hosts)))]
        result = tb.lookup(src, tb.key_of[tgt_host])
        if result.delivered:
            delivered += 1
            costs.append(result.path_cost)
    end_to_end = delivered / p.lookups
    mean_cost = float(np.mean(costs)) if costs else float("nan")
    # Reliability: fail a fraction of home agents and replay lookups.
    agents = sorted(tb.home_agent.values())
    unique_agents = sorted(set(agents))
    n_fail = int(len(unique_agents) * p.agent_failure_fraction)
    for router in tb.rng.sample("table1.failures", unique_agents, n_fail):
        tb.fail_agent(router)
    delivered_failed = 0
    for _ in range(p.lookups):
        src = stationary_hosts[int(gen.integers(len(stationary_hosts)))]
        tgt_host = mobile_hosts[int(gen.integers(len(mobile_hosts)))]
        if tb.lookup(src, tb.key_of[tgt_host]).delivered:
            delivered_failed += 1
    load = tb.agent_load_stats()
    return {
        "end_to_end": end_to_end,
        "mean_cost": mean_cost,
        # Mobile IP's triangular route is permanent: packets always pass
        # the home agent, warm or cold.
        "warm_cost": mean_cost,
        "messages_per_move": 1.0,  # one care-of registration per move
        "delivery_under_failure": delivered_failed / p.lookups,
        "max_infra_load": load["max"],
    }


_ARCH_FNS = {
    "Type A": _type_a_metrics,
    "Type B": _type_b_metrics,
    "Bristle": _bristle_metrics,
}

#: Table-1 measurement order (also the row order).
_ARCHITECTURES = ("Type A", "Type B", "Bristle")


@dataclasses.dataclass(frozen=True)
class _Table1Point:
    """One architecture of the Table-1 comparison.

    All three points deliberately share ``params.seed``: Table 1 compares
    the architectures over *one identical world* (same topology, same key
    assignment, same lookup draws), so the per-variant seed decoupling the
    figure sweeps use would defeat the experiment's pairing.
    """

    arch: str
    params: Table1Params
    router_count: int


def _table1_point(pt: _Table1Point) -> Dict[str, float]:
    """Module-level (picklable) per-architecture worker for sweep_map."""
    from ..core.config import BristleConfig

    p = pt.params
    prof = driver_profiler()
    # The bundle key is (p.seed, router_count) — the very derivation
    # build_comparison_scenario uses inline — so cached and uncached paths
    # produce byte-identical worlds.
    underlay = (
        shared_underlay_cache().get(p.seed, pt.router_count)
        if active_sweep().reuse_underlay
        else None
    )
    with prof.phase("build"):
        scenario = build_comparison_scenario(
            p.num_stationary,
            p.num_mobile,
            seed=p.seed,
            config=BristleConfig(seed=p.seed, naming=p.naming),
            underlay=underlay,
        )
    with prof.phase("measure"):
        return _ARCH_FNS[pt.arch](scenario, p)


def run_table1(params: Optional[Table1Params] = None) -> ResultTable:
    """Measure all three architectures (a 3-point sweep over one world)."""
    p = params if params is not None else Table1Params()
    router_count = max(100, (p.num_stationary + p.num_mobile) // 2)
    points = [
        _Table1Point(arch=name, params=p, router_count=router_count)
        for name in _ARCHITECTURES
    ]
    results = sweep_map(_table1_point, points)
    metrics_by_type: Dict[str, Dict[str, float]] = {
        pt.arch: res for pt, res in zip(points, results)
    }

    table = ResultTable(
        title="Table 1 — design choices, measured",
        columns=[
            "architecture",
            "end-to-end delivery",
            "mean path cost",
            "warm path cost",
            "messages/move",
            "delivery w/ 20% infra failure",
            "max infra load",
        ],
        notes=[
            f"{p.num_stationary} stationary + {p.num_mobile} mobile nodes; every "
            f"mobile node moves once; {p.lookups} lookups to pre-move keys",
        ],
    )
    for name in ("Type A", "Type B", "Bristle"):
        m = metrics_by_type[name]
        table.add_row(
            **{
                "architecture": name,
                "end-to-end delivery": m["end_to_end"],
                "mean path cost": m["mean_cost"],
                "warm path cost": m["warm_cost"],
                "messages/move": m["messages_per_move"],
                "delivery w/ 20% infra failure": m["delivery_under_failure"],
                "max infra load": m["max_infra_load"],
            }
        )
    maybe_add_phase_footer(table, ("build", "measure"))
    maybe_add_nodeload_footer(table, ("detour", "registrations"))
    return table
