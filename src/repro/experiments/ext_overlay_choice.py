"""Extension experiment: Mobile IPv6 route optimisation.

§1 notes mobile IPv6 removes the triangular route but "requires that the
correspondent host be mobile-IPv6 capable" and still depends on the home
agent for first contact.  The sweep varies the capable fraction and
measures the residual triangular traffic.  (The stationary-layer
substrate comparison, ``ext-overlays``, runs on
:func:`repro.experiments.ext_scaling.run_scale_mix`.)
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence

import numpy as np

from ..workloads.scenarios import build_comparison_scenario
from .common import ResultTable

__all__ = ["Ipv6Params", "run_ipv6_route_optimisation"]


@dataclasses.dataclass(frozen=True)
class Ipv6Params:
    num_stationary: int = 100
    num_mobile: int = 100
    lookups: int = 400
    capable_fractions: Sequence[float] = (0.0, 0.5, 1.0)
    repeats_per_pair: int = 3
    seed: int = 45


def run_ipv6_route_optimisation(params: Optional[Ipv6Params] = None) -> ResultTable:
    """Type B with a growing fraction of mobile-IPv6-capable hosts.

    Lookups repeat per (source, target) pair so binding caches matter:
    capable sources pay the triangle once and then go direct; incapable
    ones pay it every time.
    """
    p = params if params is not None else Ipv6Params()
    table = ResultTable(
        title="Extension — Mobile IPv6 route optimisation (Type B variant)",
        columns=[
            "capable (%)",
            "mean path cost",
            "triangular detours/lookup",
            "agent max load",
        ],
        notes=[
            f"{p.num_stationary}+{p.num_mobile} nodes; every mobile node "
            f"moved; {p.lookups} lookups with {p.repeats_per_pair} repeats "
            "per pair (bindings amortise)",
        ],
    )
    for frac in p.capable_fractions:
        scenario = build_comparison_scenario(
            p.num_stationary, p.num_mobile, seed=p.seed
        )
        tb = scenario.type_b
        stationary_hosts = sorted(set(tb.key_of) - scenario.mobile_hosts)
        n_capable = int(round(frac * len(stationary_hosts)))
        tb.set_ipv6_capable(stationary_hosts[:n_capable])
        for host in sorted(scenario.mobile_hosts):
            tb.move(host)
        gen = tb.rng.stream("ipv6.lookups")
        mobile_hosts = sorted(scenario.mobile_hosts)
        costs, detours = [], []
        n_pairs = max(1, p.lookups // p.repeats_per_pair)
        for _ in range(n_pairs):
            src = stationary_hosts[int(gen.integers(len(stationary_hosts)))]
            tgt = mobile_hosts[int(gen.integers(len(mobile_hosts)))]
            for _ in range(p.repeats_per_pair):
                result = tb.lookup(src, tb.key_of[tgt])
                if result.delivered:
                    costs.append(result.path_cost)
                    detours.append(result.triangular_detours)
        table.add_row(
            **{
                "capable (%)": round(100 * frac, 1),
                "mean path cost": float(np.mean(costs)),
                "triangular detours/lookup": float(np.mean(detours)),
                "agent max load": tb.agent_load_stats()["max"],
            }
        )
    return table
