"""Mobile-layer routing with address resolution — Figure 2.

``_route (node i, key j, payload d)``: at each hop the current node finds
the state-pair closest to the destination key; if that peer's network
address is unknown or invalidated, the node first resolves it through the
stationary layer (``_discovery``) and the packet travels the detour
``X → (stationary route to the holder Z) → Y`` instead of the direct hop
``X → Y``.

The module accounts both quantities Figure 7 reports:

* **application-level hops** — every overlay-level forwarding step,
  including the stationary hops of each discovery detour;
* **path cost** — per §4.1, the sum over application-level hops of the
  shortest-path weight between the two endpoints' attachment points.

Both routing policies differ only in how they pick the mobile-layer path.
One walk, :func:`_walk`, then sends the packet along it: in a single pass
it flips each hop's stale coin, appends the direct hop or the detour's
records, prices each record as it is appended, and collects what the
telemetry charges (ledger, detour breakdown, span).
"""

from __future__ import annotations

import dataclasses
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .bristle import BristleNetwork

__all__ = ["HopRecord", "RouteTrace", "route_preferring_resolved", "route_with_resolution"]


class HopRecord(NamedTuple):
    """One application-level hop of a routed packet.

    ``kind`` is ``"direct"`` for a plain mobile-layer hop, ``"inject"``
    for a mobile node handing a discovery to its stationary entry point,
    ``"stationary"`` for hops of the discovery route inside the stationary
    layer, and ``"deliver"`` for the resolved holder forwarding the packet
    to the (mobile) next hop.
    """

    src: int
    dst: int
    kind: str
    cost: float


@dataclasses.dataclass
class RouteTrace:
    """Full accounting for one routed message."""

    source: int
    target: int
    records: List[HopRecord]
    resolutions: int
    success: bool

    @property
    def app_hops(self) -> int:
        """Application-level hop count (Figure 7a's metric)."""
        return len(self.records)

    @property
    def path_cost(self) -> float:
        """Total underlay path cost (Figure 7b's second metric)."""
        return sum(r.cost for r in self.records)

    @property
    def node_path(self) -> List[int]:
        """The node-key sequence the packet visited."""
        if not self.records:
            return [self.source]
        return [self.records[0].src] + [r.dst for r in self.records]


def _begin(
    net: BristleNetwork, p_stale: Optional[float], source: int, target: int, **policy: str
) -> Tuple[float, int]:
    """A route's ``p_stale`` — the call's override, held to the config's own
    range check (NaN fails it too), else the config's — and its span id
    (0 when the tracer is off)."""
    if p_stale is None:
        p_stale = net.config.p_stale
    elif not 0.0 <= p_stale <= 1.0:
        raise ValueError("p_stale must be in [0, 1]")
    tracer = net.telemetry.tracer
    if not tracer.enabled:
        return p_stale, 0
    return p_stale, tracer.span_begin(net.now, "route", src=source, target=target, **policy)


def _walk(
    net: BristleNetwork,
    source: int,
    target: int,
    hops: Sequence[int],
    success: bool,
    p_stale: float,
    stale_stream: str,
    span_id: int,
) -> RouteTrace:
    """Send a packet along the mobile-layer path ``hops`` and account it.

    A hop ``a → b`` is stale, and becomes Fig 2's discovery detour, when
    ``b`` is mobile and the coin says so (one draw from ``stale_stream``
    unless ``p_stale`` is 0 or 1).  The detour injects the discovery at
    ``a``'s stationary entry, routes it to the record holder Z, and Z
    forwards the packet to ``b`` (§2.2).  Each record is priced as it is
    appended.  The ledger charges every forwarding node one ``routed``
    unit, the final node one ``terminated`` unit on success and each
    holder Z one ``detour`` unit; a span ``span_id`` is closed with the
    route's aggregates and its per-hop ``[src, dst, kind, cost]`` path.
    """
    router = net.placement.router_of
    distance = net.oracle.distance  # the instance attribute: spans wrap it
    is_mobile = net.is_mobile
    draw = net.rng.random
    stationary = net.stationary_layer
    resolution_load = net.resolution_load
    tracer = net.telemetry.tracer
    records: List[HopRecord] = []
    holders: List[int] = []
    detour_cost = 0.0
    detour_hops = 0
    # Records chain node to node, so each node's router is read once.
    a = hops[0]
    a_router = router(a)
    for b in hops[1:]:
        b_router = router(b)
        if not (
            is_mobile(b)
            and p_stale > 0.0
            and (p_stale >= 1.0 or draw(stale_stream) < p_stale)
        ):
            cost = 0.0 if a == b else distance(a_router, b_router)
            records.append(HopRecord(a, b, "direct", cost))
            a, a_router = b, b_router
            continue
        here, here_router = a, a_router
        entry = net.stationary_entry(a)
        if entry != a:
            here_router = router(entry)
            cost = distance(a_router, here_router)
            records.append(HopRecord(a, entry, "inject", cost))
            detour_cost += cost
            here = entry
        path = stationary.route(entry, b).hops
        for nxt in path[1:]:
            nxt_router = router(nxt)
            cost = 0.0 if here == nxt else distance(here_router, nxt_router)
            records.append(HopRecord(here, nxt, "stationary", cost))
            detour_cost += cost
            here, here_router = nxt, nxt_router
        resolution_load[here] = resolution_load.get(here, 0) + 1
        cost = 0.0 if here == b else distance(here_router, b_router)
        records.append(HopRecord(here, b, "deliver", cost))
        detour_cost += cost
        detour_hops += len(path) + (entry != a)
        holders.append(here)
        if tracer.enabled:
            tracer.emit(
                net.now,
                "discovery.detour",
                at=a,
                next_hop=b,
                holder=here,
                stationary_hops=len(path) - 1,
            )
        a, a_router = b, b_router

    trace = RouteTrace(source, target, records, len(holders), success)
    path_cost = trace.path_cost
    m = net.telemetry.metrics
    m.counter("route.count").inc()
    m.histogram("route.app_hops").observe(len(records))
    m.histogram("route.path_cost").observe(path_cost)
    m.histogram("route.resolutions").observe(len(holders))
    if not success:
        m.counter("route.failures").inc()
    if holders:
        m.histogram("discovery.detour_cost").observe(detour_cost)
        m.histogram("discovery.detour_hops").observe(detour_hops)
    ledger = net.telemetry.nodeload
    ledger.add_many("routed", [r.src for r in records])
    if success:
        ledger.add("terminated", records[-1].dst if records else source)
    ledger.add_many("detour", holders)
    if span_id:
        tracer.span_end(
            net.now,
            span_id,
            hops=len(records),
            cost=path_cost,
            resolutions=len(holders),
            success=success,
            path=[list(r) for r in records],
        )
    return trace


def route_with_resolution(
    net: BristleNetwork,
    source: int,
    target_key: int,
    *,
    p_stale: Optional[float] = None,
    stale_stream: str = "routing.stale",
) -> RouteTrace:
    """Route from node ``source`` toward ``target_key`` in the mobile
    layer, paying a stationary-layer discovery for every stale mobile hop.

    Parameters
    ----------
    net:
        The Bristle network.
    source:
        Key of the originating node (must be a mobile-layer member).
    target_key:
        Destination key (a node key or a data key — routing terminates at
        its owner).
    p_stale:
        Probability that a mobile next-hop's cached address is invalid and
        needs resolution; defaults to ``net.config.p_stale``.  The paper's
        Figure-7 setup corresponds to 1.0 ("a mobile node only advertises
        its updated location to the stationary layer", so en-route caches
        are cold).
    """
    p_stale, span_id = _begin(net, p_stale, source, target_key)
    route = net.mobile_layer.route(source, target_key)
    return _walk(
        net, source, target_key, route.hops, route.success, p_stale, stale_stream, span_id
    )


def route_preferring_resolved(
    net: BristleNetwork,
    source: int,
    target_key: int,
    *,
    p_stale: Optional[float] = None,
    stale_stream: str = "routing.stale",
) -> RouteTrace:
    """Bristle-optimised routing: among neighbours that make key-space
    progress, prefer one whose address is already resolved (a stationary
    node), falling back to mobile hops only when unavoidable.

    This implements §3's goal that "communication between nodes in the
    stationary layer should reduce the help of nodes in the mobile layer"
    as a *routing* policy (the naming scheme achieves it structurally);
    exposed for the ablation benchmarks.

    ``p_stale`` follows the same semantics (and the same ``routing.stale``
    RNG stream) as :func:`route_with_resolution`, so the two policies are
    comparable at any staleness level, not just the cold-cache extreme.
    """
    p_stale, span_id = _begin(net, p_stale, source, target_key, policy="prefer_resolved")
    # Path choice draws no coin, so choosing the whole path first leaves
    # the stale draws in the order the walk makes them.
    overlay = net.mobile_layer
    owner = overlay.owner_of(target_key)
    hops = [source]
    current = source
    seen = {source}
    while current != owner:
        cur_pk = overlay.progress_key(current, target_key)
        progress = {
            c: overlay.progress_key(c, target_key)
            for c in overlay.neighbors_of(current)
            if c not in seen
        }
        closer = [c for c, pk in progress.items() if pk < cur_pk]
        resolved = [c for c in closer if not net.is_mobile(c)]
        # min keeps the first of equal keys: neighbour order breaks ties.
        nxt = min(resolved or closer, key=progress.__getitem__, default=None)
        if nxt is None:
            nxt = overlay.next_hop(current, target_key)
            if nxt is None or nxt in seen:
                # Dead end under the progress measure: attempt the same
                # ring-distance sideways hop toward the owner that
                # ``Overlay.route_avoiding`` uses, so the two policies
                # report comparable failures instead of this one silently
                # giving up first.
                ring = overlay.space.ring_distance
                nxt = next(
                    (c for c in progress if ring(c, owner) < ring(current, owner)), None
                )
                if nxt is None:
                    break
        hops.append(nxt)
        seen.add(nxt)
        current = nxt
        if len(seen) > overlay.MAX_ROUTE_HOPS:
            break
    return _walk(
        net, source, target_key, hops, current == owner, p_stale, stale_stream, span_id
    )
