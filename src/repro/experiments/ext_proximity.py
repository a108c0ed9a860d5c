"""Extension experiment: §3 optimisation (1) — proximity-aware next hops.

"Reduce the routing overhead of each hop by exploiting the network
proximity ... forwarding the route to a neighboring node whose hash key
is closer to the destination and the cost of the network link to the
neighbor is minimal.  Although this optimization still needs O(log N)
hops ... each hop can greedily follow the network link with the minimal
cost."

The experiment builds a Tornado overlay twice over the same membership —
once proximity-blind, once with network-distance slot selection — and
routes the same sample both ways with both next-hop rules, reporting
hop counts (should stay ~equal: still O(log N)) and total path cost
(should drop: each hop follows a cheaper link).
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from ..net.shortest_path import PathOracle
from ..net.transit_stub import generate_transit_stub, params_for_router_count
from ..net.placement import Placement
from ..overlay.keyspace import KeySpace
from ..overlay.tornado import TornadoOverlay
from ..sim.rng import RngStreams
from .common import ResultTable

__all__ = ["ProximityRoutingParams", "run_proximity_routing"]


@dataclasses.dataclass(frozen=True)
class ProximityRoutingParams:
    num_nodes: int = 300
    router_count: int = 400
    routes: int = 400
    seed: int = 39


def run_proximity_routing(
    params: Optional[ProximityRoutingParams] = None,
) -> ResultTable:
    """Hop count and path cost: proximity-blind vs proximity-aware."""
    p = params if params is not None else ProximityRoutingParams()
    rng = RngStreams(p.seed)
    space = KeySpace()
    topo = generate_transit_stub(params_for_router_count(p.router_count), rng)
    oracle = PathOracle(topo.graph, domain_of=topo.router_domain)
    placement = Placement(topo, rng)
    keys = [int(k) for k in space.random_keys(rng, "keys", p.num_nodes)]
    for k in keys:
        placement.attach(k)
    # Pre-warm with the attachment routers — the only sources any hop of
    # this sweep can query — via one batched prewarm pass.
    oracle.prewarm(placement.router_of(k) for k in keys)

    def distance(a: int, b: int) -> float:
        if a == b:
            return 0.0
        return oracle.distance(placement.router_of(a), placement.router_of(b))

    def hop_costs(hops) -> float:
        """Total underlay cost of a hop sequence, batched per route."""
        pairs = [
            (placement.router_of(a), placement.router_of(b))
            for a, b in zip(hops, hops[1:])
        ]
        return float(oracle.route_costs(pairs).sum())

    blind = TornadoOverlay(space)
    blind.build(keys)
    aware = TornadoOverlay(space, proximity=distance)
    aware.build(keys)

    gen = rng.stream("routes")
    variants = {
        "blind": [],
        "aware": [],
        "aware+greedy-link": [],
    }
    hop_counts = {name: [] for name in variants}
    for _ in range(p.routes):
        s = keys[int(gen.integers(p.num_nodes))]
        t = int(gen.integers(space.size))
        # Proximity-blind table, standard rule.
        r = blind.route(s, t)
        variants["blind"].append(hop_costs(r.hops))
        hop_counts["blind"].append(r.hop_count)
        # Proximity-aware table, standard rule.
        r = aware.route(s, t)
        variants["aware"].append(hop_costs(r.hops))
        hop_counts["aware"].append(r.hop_count)
        # Proximity-aware table + §3's greedy minimal-cost link per hop.
        owner = aware.owner_of(t)
        greedy_hops = [s]
        current = s
        while current != owner:
            nxt = aware.next_hop_proximal(current, t)
            if nxt is None:
                break
            greedy_hops.append(nxt)
            current = nxt
        variants["aware+greedy-link"].append(hop_costs(greedy_hops))
        hop_counts["aware+greedy-link"].append(len(greedy_hops) - 1)

    table = ResultTable(
        title="Extension — §3 optimisation (1): proximity-aware routing",
        columns=["variant", "mean hops", "mean path cost", "cost vs blind (x)"],
        notes=[
            f"{p.num_nodes}-node Tornado overlay on ~{p.router_count} routers, "
            f"{p.routes} routes; cost = summed shortest-path weights",
        ],
    )
    base = float(np.mean(variants["blind"]))
    for name in ("blind", "aware", "aware+greedy-link"):
        mean_cost = float(np.mean(variants[name]))
        table.add_row(
            **{
                "variant": name,
                "mean hops": float(np.mean(hop_counts[name])),
                "mean path cost": mean_cost,
                "cost vs blind (x)": mean_cost / base if base else float("nan"),
            }
        )
    table.add_cache_footer(oracle.cache_stats())
    return table
