"""GT-ITM-style Transit-Stub topology generator.

The paper places every Bristle node on "the network modeled as the
Transit-Stub topology ... generated by the GT-ITM topology generator",
which "models a 2-level hierarchy of routing domains, where the
higher-level transit domains bridge the lower-level stub domains" (§4).

This module is a from-scratch reimplementation of that model:

* ``num_transit_domains`` transit domains, each a connected random graph of
  ``transit_nodes_per_domain`` routers; domains are interconnected so the
  transit backbone is connected.
* Every transit node sponsors ``stub_domains_per_transit`` stub domains,
  each a connected random graph of ``stub_nodes_per_domain`` routers,
  attached to its transit node by one edge.
* Edge weights follow the usual GT-ITM convention that transit links are
  "wide-area" expensive and intra-stub links cheap:
  transit-transit > transit-stub > intra-stub.

The generated object exposes the router :class:`~repro.net.graph.Graph`
plus the domain structure (which routers are transit vs stub, and the stub
domain each router belongs to) so experiments can reason about locality.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..sim.rng import RngStreams
from .graph import Graph

__all__ = ["TransitStubParams", "TransitStubTopology", "generate_transit_stub"]


@dataclasses.dataclass(frozen=True)
class TransitStubParams:
    """Shape and weight parameters of a transit-stub topology.

    The defaults produce the ~100-router topology used by unit tests;
    experiments override sizes (Figure 9 uses ~10,000 routers).
    """

    num_transit_domains: int = 2
    transit_nodes_per_domain: int = 4
    stub_domains_per_transit: int = 3
    stub_nodes_per_domain: int = 4
    #: probability of each extra intra-domain edge beyond the connecting cycle
    intra_edge_prob: float = 0.4
    #: weight ranges (low, high) per link class
    transit_transit_weight: Tuple[float, float] = (20.0, 40.0)
    transit_stub_weight: Tuple[float, float] = (8.0, 16.0)
    intra_stub_weight: Tuple[float, float] = (1.0, 4.0)
    intra_transit_weight: Tuple[float, float] = (10.0, 20.0)

    def __post_init__(self) -> None:
        if self.num_transit_domains < 1:
            raise ValueError("need at least one transit domain")
        if self.transit_nodes_per_domain < 1:
            raise ValueError("need at least one transit node per domain")
        if self.stub_domains_per_transit < 0 or self.stub_nodes_per_domain < 1:
            raise ValueError("invalid stub domain shape")
        if not 0.0 <= self.intra_edge_prob <= 1.0:
            raise ValueError("intra_edge_prob must be in [0, 1]")
        for lo, hi in (
            self.transit_transit_weight,
            self.transit_stub_weight,
            self.intra_stub_weight,
            self.intra_transit_weight,
        ):
            if not 0 < lo <= hi < math.inf:
                raise ValueError("weight ranges must be finite and positive with low <= high")

    @property
    def total_routers(self) -> int:
        """Total number of routers the parameters imply."""
        transit = self.num_transit_domains * self.transit_nodes_per_domain
        stubs = transit * self.stub_domains_per_transit * self.stub_nodes_per_domain
        return transit + stubs


@dataclasses.dataclass
class TransitStubTopology:
    """A generated transit-stub router network.

    Attributes
    ----------
    graph:
        Frozen weighted router graph.
    transit_routers:
        Router ids in the transit backbone.
    stub_routers:
        Router ids in stub domains (the attachment points offered to hosts).
    stub_domain_of:
        Map router id → stub domain id (transit routers are absent).
    domains:
        Map stub domain id → list of its router ids.
    params:
        The generation parameters.
    router_domain:
        ``stub_domain_of`` as an array over router ids, ``-1`` for transit
        routers — the domain hint :class:`PathOracle` takes.
    """

    graph: Graph
    transit_routers: List[int]
    stub_routers: List[int]
    stub_domain_of: Dict[int, int]
    domains: Dict[int, List[int]]
    params: TransitStubParams
    router_domain: np.ndarray

    @property
    def num_routers(self) -> int:
        return self.graph.num_vertices

    def attachment_points(self) -> List[int]:
        """Routers hosts may attach to (stub routers, per GT-ITM convention)."""
        return list(self.stub_routers)


def _uniform_weight(rng: np.random.Generator, bounds: Tuple[float, float]) -> float:
    lo, hi = bounds
    return float(rng.uniform(lo, hi))


def _connect_domain(
    graph: Graph,
    members: Sequence[int],
    rng: np.random.Generator,
    weight_bounds: Tuple[float, float],
    extra_edge_prob: float,
) -> None:
    """Wire the still unconnected ``members`` into a connected random subgraph.

    A random spanning path guarantees connectivity; each remaining pair gets
    an extra edge with probability ``extra_edge_prob``.  The path's weights
    are one vector draw and every edge goes to the graph in one
    :meth:`Graph.add_edges` call.
    """
    n = len(members)
    if n <= 1:
        return
    order = list(range(n))
    rng.shuffle(order)
    lo, hi = weight_bounds
    path_weights = rng.uniform(lo, hi, size=n - 1)
    # Every pair off the path, in (i < j) order, flips a coin (``random()``)
    # and on heads draws its weight next (``uniform`` is ``lo + (hi - lo) *
    # random()``).  Replayed here on arrays of those same doubles: a draw is
    # a coin unless the one before it was a coin that came up heads, so
    # coins alternate along each run of heads.  Each batch draws the coins
    # still to flip (plus a pending weight) and is classified on its own.
    off_path = np.ones((n, n), dtype=bool)
    off_path[order[:-1], order[1:]] = off_path[order[1:], order[:-1]] = False
    rows, cols = np.triu_indices(n, 1)
    pairs = np.flatnonzero(off_path[rows, cols])
    batches, coins = [np.empty(0)], [np.empty(0, dtype=bool)]
    left, next_coin = pairs.size, True  # coins still to flip; is the next draw one?
    while left or not next_coin:
        batch = rng.random(left + (not next_coin))
        heads = batch < extra_edge_prob
        at = np.arange(batch.size)
        run_start = np.maximum.accumulate(np.where(np.r_[next_coin, ~heads[:-1]], at, -1))
        coin = (at - run_start) % 2 == 0
        batches.append(batch)
        coins.append(coin)
        left -= int(coin.sum())
        next_coin = not (coin[-1] and heads[-1])
    draws, coin = np.concatenate(batches), np.concatenate(coins)
    taken = np.flatnonzero(coin & (draws < extra_edge_prob))
    chosen = pairs[np.cumsum(coin)[taken] - 1]
    ids = np.asarray(members, dtype=np.int64)
    graph.add_edges(
        ids[np.r_[order[:-1], rows[chosen]]],
        ids[np.r_[order[1:], cols[chosen]]],
        np.r_[path_weights, lo + (hi - lo) * draws[taken + 1]],
    )


def generate_transit_stub(
    params: TransitStubParams, rng_streams: RngStreams
) -> TransitStubTopology:
    """Generate a transit-stub topology from ``params``.

    Deterministic for a fixed ``rng_streams`` master seed (stream name
    ``"topology"``).  The result's graph is frozen and guaranteed connected.
    """
    rng = rng_streams.stream("topology")
    graph = Graph()

    # --- transit backbone -------------------------------------------------
    transit_domains: List[List[int]] = []
    for _ in range(params.num_transit_domains):
        members = graph.add_vertices(params.transit_nodes_per_domain)
        _connect_domain(graph, members, rng, params.intra_transit_weight, params.intra_edge_prob)
        transit_domains.append(members)

    # Ring of inter-domain links keeps the backbone connected; one random
    # representative pair per adjacent domain pair.
    if params.num_transit_domains > 1:
        for d in range(params.num_transit_domains):
            nd = (d + 1) % params.num_transit_domains
            if params.num_transit_domains == 2 and d == 1:
                break  # avoid doubling the single inter-domain link
            u = transit_domains[d][int(rng.integers(len(transit_domains[d])))]
            v = transit_domains[nd][int(rng.integers(len(transit_domains[nd])))]
            if u != v and not graph.has_edge(u, v):
                graph.add_edge(u, v, _uniform_weight(rng, params.transit_transit_weight))

    transit_routers = [r for dom in transit_domains for r in dom]

    # --- stub domains ------------------------------------------------------
    stub_routers: List[int] = []
    stub_domain_of: Dict[int, int] = {}
    domains: Dict[int, List[int]] = {}
    next_domain_id = 0
    for t in transit_routers:
        for _ in range(params.stub_domains_per_transit):
            members = graph.add_vertices(params.stub_nodes_per_domain)
            _connect_domain(graph, members, rng, params.intra_stub_weight, params.intra_edge_prob)
            # Attach the stub domain to its transit router via one gateway.
            gateway = members[int(rng.integers(len(members)))]
            graph.add_edge(gateway, t, _uniform_weight(rng, params.transit_stub_weight))
            domains[next_domain_id] = list(members)
            for m in members:
                stub_domain_of[m] = next_domain_id
            stub_routers.extend(members)
            next_domain_id += 1

    graph.freeze()
    router_domain = np.full(graph.num_vertices, -1, dtype=np.int64)
    router_domain[stub_routers] = [stub_domain_of[r] for r in stub_routers]
    topo = TransitStubTopology(
        graph=graph,
        transit_routers=transit_routers,
        stub_routers=stub_routers,
        stub_domain_of=stub_domain_of,
        domains=domains,
        params=params,
        router_domain=router_domain,
    )
    # The construction guarantees connectivity; assert it in debug spirit
    # (one connected-components pass over the CSR) so corrupt topologies
    # fail fast.
    if not graph.is_connected():  # pragma: no cover - construction guarantees this
        raise RuntimeError("generated transit-stub topology is disconnected")
    return topo


def params_for_router_count(target_routers: int) -> TransitStubParams:
    """Heuristically choose parameters yielding ≈ ``target_routers`` routers.

    Keeps the GT-ITM proportions (few transit routers, many stub routers).
    Used by experiments that specify only a network size, e.g. Figure 9's
    "network comprising of 10,000 nodes".
    """
    if target_routers < 8:
        raise ValueError("transit-stub topologies need at least 8 routers")
    # Fix 4 transit domains of 4 routers (16 transit routers) when possible,
    # then size stub domains to hit the target.
    ntd = 4 if target_routers >= 200 else 2
    tpd = 4 if target_routers >= 200 else 2
    transit = ntd * tpd
    sdt = 3
    remaining = max(target_routers - transit, sdt * transit)
    spd = max(1, round(remaining / (transit * sdt)))
    return TransitStubParams(
        num_transit_domains=ntd,
        transit_nodes_per_domain=tpd,
        stub_domains_per_transit=sdt,
        stub_nodes_per_domain=spd,
    )


__all__.append("params_for_router_count")
