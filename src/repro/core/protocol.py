"""Message-level protocol simulation on the discrete-event engine.

The batch experiments (Figures 7–9) account hops and path costs
analytically; this module runs the same protocols as *timed messages* so
latency-level questions can be asked: how long does an LDT advertisement
wave take to reach every registrant?  How long does a discovery
round-trip take?  Message latency between two nodes is their underlay
shortest-path weight (times ``latency_scale``), the same metric §4.1
charges per application-level hop.

The two protocol drivers:

* :class:`AdvertisementWave` — a Fig-4 LDT multicast propagated level by
  level: the root sends to each partition head, each head forwards to its
  children on arrival, and the wave completes when the last registrant
  holds the new address.  Makespan = deepest latency chain, the timed
  counterpart of the ``O(log_k log N)`` depth bound.
* :class:`DiscoveryExchange` — a Fig-2 ``_discovery``: hop-by-hop routing
  of the query through the stationary layer to the record holder, then a
  direct reply.  Round-trip time = query path latency + reply latency.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Sequence

from ..sim.engine import Engine
from ..sim.events import EventKind
from ..sim.metrics import MetricsRegistry
from ..sim.trace import NULL_TRACER, Tracer
from .bristle import BristleNetwork, cohosted_group
from .ldt import LDTree

__all__ = ["BristleProtocol", "AdvertisementWave", "DiscoveryExchange"]


@dataclasses.dataclass
class AdvertisementWave:
    """State of one in-flight LDT multicast.

    Attributes
    ----------
    root_key:
        The advertising mobile node.
    started_at:
        Virtual time the wave began.
    arrival_times:
        member key → virtual time its copy of the update arrived.
    expected:
        Number of registrants the wave must reach.
    """

    root_key: int
    started_at: float
    expected: int
    arrival_times: Dict[int, float] = dataclasses.field(default_factory=dict)
    on_complete: Optional[Callable[["AdvertisementWave"], None]] = None

    @property
    def complete(self) -> bool:
        return len(self.arrival_times) >= self.expected

    @property
    def completed_at(self) -> float:
        """Arrival time of the last registrant (valid once complete)."""
        if not self.arrival_times:
            return self.started_at
        return max(self.arrival_times.values())

    @property
    def makespan(self) -> float:
        """Wall-clock (virtual) duration of the wave."""
        return self.completed_at - self.started_at


def _wave_path(wave: AdvertisementWave) -> List[List[float]]:
    """Causal descent record for span attachment: ``[node, arrival]``
    pairs in arrival order (ties broken by key), tracing the LDT wave
    front from root to the last registrant."""
    return [
        [int(node), t]
        for node, t in sorted(wave.arrival_times.items(), key=lambda kv: (kv[1], kv[0]))
    ]


@dataclasses.dataclass
class DiscoveryExchange:
    """State of one in-flight discovery round-trip."""

    requester: int
    target: int
    started_at: float
    resolved_at: Optional[float] = None
    address: Optional[object] = None
    query_hops: int = 0
    on_complete: Optional[Callable[["DiscoveryExchange"], None]] = None

    @property
    def complete(self) -> bool:
        return self.resolved_at is not None

    @property
    def rtt(self) -> float:
        """Round-trip time (valid once complete)."""
        if self.resolved_at is None:
            raise RuntimeError("discovery still in flight")
        return self.resolved_at - self.started_at


class BristleProtocol:
    """Timed protocol driver over a built :class:`BristleNetwork`.

    Parameters
    ----------
    net:
        The network (topology, layers, directory already built).
    engine:
        The event engine supplying virtual time.
    latency_scale:
        Multiplier from underlay path weight to message latency.
    tracer:
        Optional :class:`Tracer` receiving per-message records; defaults
        to the network telemetry's tracer (disabled outside a session).
    metrics:
        Optional registry; defaults to the network telemetry's registry so
        protocol counters land in the same run manifest as everything else.
    """

    def __init__(
        self,
        net: BristleNetwork,
        engine: Engine,
        *,
        latency_scale: float = 1.0,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if latency_scale <= 0:
            raise ValueError("latency_scale must be positive")
        self.net = net
        self.engine = engine
        self.latency_scale = latency_scale
        if tracer is not None:
            self.tracer = tracer
        elif net.telemetry.tracer.enabled:
            self.tracer = net.telemetry.tracer
        else:
            self.tracer = NULL_TRACER
        self.metrics = metrics if metrics is not None else net.telemetry.metrics

    # ------------------------------------------------------------------
    # Message primitive
    # ------------------------------------------------------------------
    def latency(self, src: int, dst: int) -> float:
        """Message latency between two nodes (underlay shortest path)."""
        return self.net.network_distance_between_keys(src, dst) * self.latency_scale

    def send(self, src: int, dst: int, kind: str, deliver: Callable[[], None]) -> float:
        """Schedule delivery of one message; returns its arrival time."""
        arrival = self.engine.now + self.latency(src, dst)
        self.metrics.counter(f"messages.{kind}").inc()
        self.metrics.histogram("latency." + kind).observe(arrival - self.engine.now)
        self.tracer.emit(self.engine.now, "send", kind=kind, src=src, dst=dst)
        self.engine.schedule(
            arrival, deliver, kind=EventKind.MESSAGE, label=f"{kind}:{src:#x}->{dst:#x}"
        )
        return arrival

    # ------------------------------------------------------------------
    # LDT advertisement (Fig 4, timed)
    # ------------------------------------------------------------------
    def advertise(
        self,
        mobile_key: int,
        *,
        tree: Optional[LDTree] = None,
        on_complete: Optional[Callable[[AdvertisementWave], None]] = None,
    ) -> AdvertisementWave:
        """Start a timed LDT multicast of ``mobile_key``'s current address.

        Returns the wave object immediately; run the engine to progress
        it.  ``on_complete`` fires when the last registrant is reached.
        """
        if tree is None:
            tree = self.net.build_ldt_for(mobile_key)
        return self._wave((mobile_key,), tree, on_complete, "protocol.advertise")

    def advertise_many(
        self,
        keys: Sequence[int],
        *,
        tree: Optional[LDTree] = None,
        on_complete: Optional[Callable[[AdvertisementWave], None]] = None,
    ) -> AdvertisementWave:
        """Start one coalesced multicast for co-hosted mobile ``keys``.

        The batched counterpart of :meth:`advertise`: a single wave runs
        over the union dissemination tree
        (:meth:`BristleNetwork.build_ldt_for_group`) — one message per
        registrant instead of one per (key, registrant) subscription.
        """
        group = cohosted_group(keys)
        if tree is None:
            _, tree = self.net.build_ldt_for_group(group)
        return self._wave(
            group, tree, on_complete, "protocol.advertise_many", batch=len(group)
        )

    def _wave(
        self,
        group: Sequence[int],
        tree: LDTree,
        on_complete: Optional[Callable[[AdvertisementWave], None]],
        span: str,
        **span_fields: int,
    ) -> AdvertisementWave:
        """Run one wave down ``tree`` for the co-hosted keys ``group`` (a
        single key is a group of one): each arriving registrant renews its
        cached state-pair for every group key it is registered to, then
        forwards to its children."""
        nodes, ttl = self.net.nodes, self.net.config.state_ttl
        root = tree.root_key
        wave = AdvertisementWave(
            root_key=root,
            started_at=self.engine.now,
            expected=tree.num_members,
            on_complete=on_complete,
        )
        span_id = (
            self.tracer.span_begin(
                self.engine.now,
                span,
                root=root,
                **span_fields,
                members=tree.num_members,
            )
            if self.tracer.enabled
            else 0
        )
        if tree.num_members == 0:
            self.tracer.span_end(self.engine.now, span_id, makespan=0.0)
            if on_complete is not None:
                on_complete(wave)
            return wave

        def forward(sender: int) -> None:
            # A node that has left neither sends nor is sent to; the
            # partitions that leaves unreached drop out of the expected count.
            children = tree.children_of(sender)
            reached = [c for c in children if c in nodes] if sender in nodes else []
            wave.expected -= sum(tree.nodes[c].assigned for c in children if c not in reached)
            if reached:
                self.metrics.histogram("ldt.multicast.fanout").observe(len(reached))
            for child in reached:
                self.send(
                    sender,
                    child,
                    "advertise",
                    deliver=lambda c=child: arrive(c),
                )

        def finish() -> None:
            self.metrics.histogram("advertise.makespan").observe(wave.makespan)
            if span_id:
                self.tracer.span_end(
                    self.engine.now,
                    span_id,
                    makespan=wave.makespan,
                    path=_wave_path(wave),
                )
            if wave.on_complete is not None:
                wave.on_complete(wave)

        def arrive(node_key: int) -> None:
            now = self.engine.now
            wave.arrival_times[node_key] = now
            self.tracer.emit(now, "advertised", root=root, node=node_key)
            registrant = nodes.get(node_key)
            if registrant is not None:
                # A group key or a registrant that left mid-wave has no
                # subscription to renew.
                for mk in group:
                    mobile_node = nodes.get(mk)
                    if mobile_node is not None and node_key in mobile_node.registry:
                        registrant.state.renew(mk, mobile_node.address, now, ttl)
            forward(node_key)
            if wave.complete:
                finish()

        forward(root)
        if wave.complete:  # every partition head had left
            finish()
        return wave

    # ------------------------------------------------------------------
    # Discovery (Fig 2, timed)
    # ------------------------------------------------------------------
    def discover(
        self,
        requester: int,
        target: int,
        *,
        on_complete: Optional[Callable[[DiscoveryExchange], None]] = None,
    ) -> DiscoveryExchange:
        """Start a timed discovery for ``target``'s address.

        The query routes hop-by-hop through the stationary layer (each
        hop is a message); the holder replies directly to the requester.
        """
        exchange = DiscoveryExchange(
            requester=requester,
            target=target,
            started_at=self.engine.now,
            on_complete=on_complete,
        )
        span_id = (
            self.tracer.span_begin(
                self.engine.now,
                "protocol.discover",
                requester=requester,
                target=target,
            )
            if self.tracer.enabled
            else 0
        )
        entry = self.net.stationary_entry(requester)
        stat_route = self.net.stationary_layer.route(entry, target)
        path: List[int] = ([requester] if entry != requester else []) + list(
            stat_route.hops
        )
        exchange.query_hops = len(path) - 1

        def reply_from(holder: int) -> None:
            addr = self.net.directory.resolve_at(
                holder, target, now=self.engine.now
            ) or self.net.directory.resolve(target, now=self.engine.now)

            def deliver_reply() -> None:
                exchange.resolved_at = self.engine.now
                exchange.address = addr
                self.metrics.histogram("discover.rtt").observe(exchange.rtt)
                self.tracer.emit(
                    self.engine.now,
                    "discovered",
                    requester=requester,
                    target=target,
                    found=addr is not None,
                )
                if span_id:
                    self.tracer.span_end(
                        self.engine.now,
                        span_id,
                        rtt=exchange.rtt,
                        hops=exchange.query_hops,
                        found=addr is not None,
                        path=[
                            [a, b, self.latency(a, b)]
                            for a, b in zip(path, path[1:])
                        ],
                    )
                if exchange.on_complete is not None:
                    exchange.on_complete(exchange)

            self.send(holder, requester, "discover-reply", deliver_reply)

        def hop(index: int) -> None:
            if index == len(path) - 1:
                reply_from(path[-1])
                return
            self.send(
                path[index],
                path[index + 1],
                "discover",
                deliver=lambda: hop(index + 1),
            )

        if len(path) == 1:
            # The requester is itself the holder.
            reply_from(path[0])
        else:
            hop(0)
        return exchange
