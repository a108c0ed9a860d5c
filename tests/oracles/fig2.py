"""Fig 2's routing as it was before its single walk: two passes.

The first pass appends a ``HopRecord`` per hop, pricing each through
``network_distance_between_keys`` and appending a stale hop's discovery
detour in ``_detour``; the second, ``_record_route_telemetry``, loops over
the finished records again for the ledger, the detour breakdown and the
span.  ``route_preferring_resolved`` interleaves its path choice with the
stale coins.  ``tests/test_routing_walk.py`` holds ``repro.core.routing``'s
one-pass walk equal to these on twin networks: records, telemetry, ledger,
tracer events and the ``routing.stale`` stream.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.bristle import BristleNetwork
from repro.core.routing import HopRecord, RouteTrace

__all__ = ["reference_route_preferring_resolved", "reference_route_with_resolution"]


def _checked_p_stale(net: BristleNetwork, p_stale: Optional[float]) -> float:
    """A call's ``p_stale`` override, held to the config's own range check
    (NaN fails it too); the config's value when there is none."""
    if p_stale is None:
        return net.config.p_stale
    if not 0.0 <= p_stale <= 1.0:
        raise ValueError("p_stale must be in [0, 1]")
    return p_stale


def _record_route_telemetry(
    net: BristleNetwork, trace: RouteTrace, span_id: int
) -> RouteTrace:
    """Account one finished route in the network's telemetry.

    Per-route histograms (``route.app_hops``, ``route.path_cost``,
    ``route.resolutions``) always record — cheap O(1) appends; the
    discovery-detour breakdown (``discovery.detour_cost`` /
    ``discovery.detour_hops``, the stationary-layer share of the route)
    records whenever resolutions happened.  The per-node ledger charges
    every forwarding node one ``routed`` unit, the final node one
    ``terminated`` unit on success, and each resolving record holder
    (Fig 2's Z, the source of a ``deliver`` hop) one ``detour`` unit —
    pure integer counting, always on.  When a span is open it is closed
    with the route's aggregates plus the causal hop path (per-hop
    ``[src, dst, kind, cost]`` records), so one lookup can be traced
    end-to-end through stationary routing → detour → delivery.
    """
    m = net.telemetry.metrics
    path_cost = trace.path_cost
    m.counter("route.count").inc()
    m.histogram("route.app_hops").observe(trace.app_hops)
    m.histogram("route.path_cost").observe(path_cost)
    m.histogram("route.resolutions").observe(trace.resolutions)
    if not trace.success:
        m.counter("route.failures").inc()
    # One pass over the hops feeds the detour breakdown and the ledger.
    detour_cost = 0.0
    detour_hops = 0
    forwarders: List[int] = []
    holders: List[int] = []
    for r in trace.records:
        forwarders.append(r.src)
        if r.kind != "direct":
            detour_cost += r.cost
            detour_hops += 1
            if r.kind == "deliver":
                holders.append(r.src)
    if trace.resolutions:
        m.histogram("discovery.detour_cost").observe(detour_cost)
        m.histogram("discovery.detour_hops").observe(detour_hops)
    ledger = net.telemetry.nodeload
    ledger.add_many("routed", forwarders)
    if trace.success:
        ledger.add("terminated", trace.records[-1].dst if forwarders else trace.source)
    ledger.add_many("detour", holders)
    if span_id:
        net.telemetry.tracer.span_end(
            net.now,
            span_id,
            hops=trace.app_hops,
            cost=path_cost,
            resolutions=trace.resolutions,
            success=trace.success,
            path=[[r.src, r.dst, r.kind, r.cost] for r in trace.records],
        )
    return trace


def _address_is_stale(
    net: BristleNetwork, key: int, p_stale: float, stale_stream: str
) -> bool:
    """Whether the cached address of next hop ``key`` needs resolution:
    never for a stationary node, else with probability ``p_stale`` (one
    draw from ``stale_stream`` unless the answer is certain)."""
    return (
        net.is_mobile(key)
        and p_stale > 0.0
        and (p_stale >= 1.0 or net.rng.random(stale_stream) < p_stale)
    )


def _detour(net: BristleNetwork, records: List[HopRecord], a: int, b: int) -> None:
    """Append the discovery detour for the stale hop ``a → b``:
    a → entry → ... → holder Z → b  (Fig 2's ``_discovery`` plus Z
    forwarding the packet to the destination, §2.2: "Once Z determines the
    network address of k ... it forwards the message to the destination
    node Y")."""
    dist = net.network_distance_between_keys
    stationary = net.stationary_layer
    entry = net.stationary_entry(a)
    if entry != a:
        records.append(HopRecord(a, entry, "inject", dist(a, entry)))
    stat_hops = stationary.route(entry, b).hops
    for sa, sb in zip(stat_hops, stat_hops[1:]):
        records.append(HopRecord(sa, sb, "stationary", dist(sa, sb)))
    holder = stat_hops[-1]
    net.resolution_load[holder] = net.resolution_load.get(holder, 0) + 1
    records.append(HopRecord(holder, b, "deliver", dist(holder, b)))
    tracer = net.telemetry.tracer
    if tracer.enabled:
        tracer.emit(
            net.now,
            "discovery.detour",
            at=a,
            next_hop=b,
            holder=holder,
            stationary_hops=len(stat_hops) - 1,
        )


def reference_route_with_resolution(
    net: BristleNetwork,
    source: int,
    target_key: int,
    *,
    p_stale: Optional[float] = None,
    stale_stream: str = "routing.stale",
) -> RouteTrace:
    """``route_with_resolution``: the overlay's route, then one record
    per hop (a detour per stale one), then the telemetry pass."""
    p_stale = _checked_p_stale(net, p_stale)
    tracer = net.telemetry.tracer
    span_id = (
        tracer.span_begin(net.now, "route", src=source, target=target_key)
        if tracer.enabled
        else 0
    )
    overlay_route = net.mobile_layer.route(source, target_key)
    records: List[HopRecord] = []
    resolutions = 0
    dist = net.network_distance_between_keys
    hops = overlay_route.hops
    for a, b in zip(hops, hops[1:]):
        if _address_is_stale(net, b, p_stale, stale_stream):
            resolutions += 1
            _detour(net, records, a, b)
        else:
            records.append(HopRecord(a, b, "direct", dist(a, b)))

    return _record_route_telemetry(
        net,
        RouteTrace(
            source=source,
            target=target_key,
            records=records,
            resolutions=resolutions,
            success=overlay_route.success,
        ),
        span_id,
    )


def reference_route_preferring_resolved(
    net: BristleNetwork,
    source: int,
    target_key: int,
    *,
    p_stale: Optional[float] = None,
    stale_stream: str = "routing.stale",
) -> RouteTrace:
    """``route_preferring_resolved``: each hop's choice, its stale coin and
    its records in one loop, then the telemetry pass."""
    p_stale = _checked_p_stale(net, p_stale)
    tracer = net.telemetry.tracer
    span_id = (
        tracer.span_begin(
            net.now, "route", src=source, target=target_key, policy="prefer_resolved"
        )
        if tracer.enabled
        else 0
    )
    overlay = net.mobile_layer
    owner = overlay.owner_of(target_key)
    dist = net.network_distance_between_keys
    records: List[HopRecord] = []
    resolutions = 0
    current = source
    seen = {source}
    while current != owner:
        cur_pk = overlay.progress_key(current, target_key)
        best_stationary: Optional[int] = None
        best_stationary_pk = cur_pk
        best_any: Optional[int] = None
        best_any_pk = cur_pk
        for cand in overlay.neighbors_of(current):
            if cand in seen:
                continue
            pk = overlay.progress_key(cand, target_key)
            if pk < best_any_pk:
                best_any, best_any_pk = cand, pk
            if not net.is_mobile(cand) and pk < best_stationary_pk:
                best_stationary, best_stationary_pk = cand, pk
        nxt = best_stationary if best_stationary is not None else best_any
        if nxt is None:
            nxt = overlay.next_hop(current, target_key)
            if nxt is None or nxt in seen:
                # Dead end under the progress measure: attempt the same
                # ring-distance sideways hop toward the owner that
                # ``Overlay.route_avoiding`` uses, so the two policies
                # report comparable failures instead of this one silently
                # giving up first.
                nxt = None
                cur_ring = overlay.space.ring_distance(current, owner)
                for cand in overlay.neighbors_of(current):
                    if cand in seen:
                        continue
                    if overlay.space.ring_distance(cand, owner) < cur_ring:
                        nxt = cand
                        break
                if nxt is None:
                    break
        if _address_is_stale(net, nxt, p_stale, stale_stream):
            resolutions += 1
            _detour(net, records, current, nxt)
        else:
            records.append(HopRecord(current, nxt, "direct", dist(current, nxt)))
        seen.add(nxt)
        current = nxt
        if len(seen) > overlay.MAX_ROUTE_HOPS:
            break
    return _record_route_telemetry(
        net,
        RouteTrace(
            source=source,
            target=target_key,
            records=records,
            resolutions=resolutions,
            success=current == owner,
        ),
        span_id,
    )
