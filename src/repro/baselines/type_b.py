"""Type B baseline: an HS-P2P deployed over (simulated) Mobile IP (§1).

"Mobile IP provides a transparent view of the underlying network to the
HS-P2P. ... However, mobile IP assumes that home and foreign agents are
reliable and administrative support is available.  These agents may
introduce critical points of failure and performance bottlenecks ...
Perhaps the most serious problem with mobile IP is the triangular route
that it introduces."

The model: every mobile host has a fixed **home agent** (a router in its
original stub domain).  Overlay routing is mobility-oblivious — each
overlay hop addressed to a moved mobile node physically travels
``sender → home agent → current location`` (the triangular route of RFC
2002 tunnelling).  Home agents can be failed to measure the
reliability/availability row of Table 1, and per-agent traffic counters
expose the bottleneck row.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Set

from ..net.placement import Placement
from ..net.shortest_path import PathOracle
from ..net.transit_stub import TransitStubTopology
from ..overlay.base import Overlay
from ..overlay.chord import ChordOverlay
from ..overlay.keyspace import KeySpace
from ..sim.rng import RngStreams

__all__ = ["TypeBMobileIPHSP2P", "TypeBLookup"]


@dataclasses.dataclass
class TypeBLookup:
    """Outcome of a Type-B lookup.

    ``delivered`` goes False when a required home agent was failed —
    packets to that host are simply lost (the critical-point-of-failure
    row of Table 1).
    """

    target: int
    hops: int
    path_cost: float
    triangular_detours: int
    delivered: bool


class TypeBMobileIPHSP2P:
    """HS-P2P whose mobile members are reached through home agents."""

    def __init__(
        self,
        space: KeySpace,
        topology: TransitStubTopology,
        rng: RngStreams,
        host_keys: Dict[int, int],
        mobile_hosts: Set[int],
    ) -> None:
        self.space = space
        self.rng = rng
        self.oracle = PathOracle(topology.graph, domain_of=topology.router_domain)
        self.placement = Placement(topology, rng)
        self.key_of: Dict[int, int] = dict(host_keys)
        self.host_of: Dict[int, int] = {k: h for h, k in host_keys.items()}
        if len(self.host_of) != len(self.key_of):
            raise ValueError("host keys must be distinct")
        self.mobile_hosts = set(mobile_hosts)
        self.overlay: Overlay = ChordOverlay(space)
        self.overlay.build(list(self.key_of.values()))
        #: mobile host → home-agent router (its original attachment point)
        self.home_agent: Dict[int, int] = {}
        #: mobile host → away-from-home flag
        self.away: Set[int] = set()
        self.failed_agents: Set[int] = set()
        #: packets relayed per home-agent router (bottleneck metric)
        self.agent_load: Dict[int, int] = {}
        self.registration_messages = 0
        #: hosts speaking Mobile IPv6 (§1): correspondents that may cache
        #: a mover's care-of address after the first (triangular) packet
        self.ipv6_capable: Set[int] = set()
        #: (correspondent, mobile host) pairs with a cached binding
        self._bindings: Set[tuple] = set()
        for host in self.key_of:
            addr = self.placement.attach(host)
            if host in self.mobile_hosts:
                self.home_agent[host] = addr.router
                self.agent_load[addr.router] = self.agent_load.get(addr.router, 0)

    @property
    def num_nodes(self) -> int:
        return len(self.key_of)

    def move(self, host: int) -> None:
        """Host moves; it registers its care-of address with its home
        agent (one registration message — cheap, but the agent is now on
        every data path).  Any cached IPv6 bindings for the host become
        stale and are dropped (correspondents must re-learn via the
        agent)."""
        if host not in self.mobile_hosts:
            raise ValueError(f"host {host} is not mobile")
        self.placement.move(host)
        self.away.add(host)
        self.registration_messages += 1
        self._bindings = {(c, h) for c, h in self._bindings if h != host}

    def set_ipv6_capable(self, hosts) -> None:
        """Mark correspondents as mobile-IPv6 capable (§1: route
        optimisation 'requires that the correspondent host be
        mobile-IPv6 capable')."""
        self.ipv6_capable = set(hosts)

    def fail_agent(self, router: int) -> None:
        """Take a home agent down (reliability experiments)."""
        self.failed_agents.add(router)

    def restore_agent(self, router: int) -> None:
        """Bring a failed home agent back into service."""
        self.failed_agents.discard(router)

    def _physical_hop(self, src_host: int, dst_host: int) -> "tuple[float, int, bool]":
        """Cost of one overlay hop, detouring via the home agent when the
        destination is an away mobile host.

        An IPv6-capable sender holding a cached binding for the mover goes
        direct; the first packet still travels the triangle (and plants
        the binding).  Returns ``(cost, detours, delivered)``.
        """
        src_router = self.placement.router_of(src_host)
        if dst_host in self.away:
            dst_router = self.placement.router_of(dst_host)
            if src_host in self.ipv6_capable and (src_host, dst_host) in self._bindings:
                return self.oracle.distance(src_router, dst_router), 0, True
            agent = self.home_agent[dst_host]
            if agent in self.failed_agents:
                return 0.0, 0, False
            self.agent_load[agent] = self.agent_load.get(agent, 0) + 1
            if src_host in self.ipv6_capable:
                self._bindings.add((src_host, dst_host))
            cost = self.oracle.distance(src_router, agent) + self.oracle.distance(
                agent, dst_router
            )
            return cost, 1, True
        dst_router = self.placement.router_of(dst_host)
        return self.oracle.distance(src_router, dst_router), 0, True

    def lookup(self, source_host: int, target_key: int) -> TypeBLookup:
        """Route toward ``target_key``; every hop to an away mobile node
        pays the triangular detour."""
        src_key = self.key_of[source_host]
        route = self.overlay.route(src_key, target_key)
        cost = 0.0
        detours = 0
        delivered = True
        for a, b in zip(route.hops, route.hops[1:]):
            hop_cost, hop_detours, ok = self._physical_hop(self.host_of[a], self.host_of[b])
            if not ok:
                delivered = False
                break
            cost += hop_cost
            detours += hop_detours
        return TypeBLookup(
            target=target_key,
            hops=route.hop_count,
            path_cost=cost,
            triangular_detours=detours,
            delivered=delivered and route.success,
        )

    def agent_load_stats(self) -> Dict[str, float]:
        """Mean/max packets relayed per home agent (bottleneck row)."""
        loads = list(self.agent_load.values())
        if not loads:
            return {"mean": 0.0, "max": 0.0, "agents": 0.0}
        return {
            "mean": sum(loads) / len(loads),
            "max": float(max(loads)),
            "agents": float(len(loads)),
        }
