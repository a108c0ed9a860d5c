"""Type A baseline: mobility as leave-and-rejoin over plain IP (§1).

"A straightforward solution is to treat that node as leaving the HS-P2P
and then joining as a new peer in the new location.  The peers in the
HS-P2P periodically update their states to preserve the freshness.  The
old states associated with the mobile node can then be removed gradually
from the system once their states expire. ... Apparently, this approach
cannot guarantee end-to-end semantics for applications running on top of
it."

The model: a single HS-P2P over all nodes; when a mobile node moves it
abandons its key and rejoins under a *fresh* key.  Messages addressed to
the old key fail (or reach a different owner) until peers' state expires —
exactly the end-to-end-semantics violation Table 1 records.  Each rejoin
costs the ``2 × O(log N)`` join messages of §2.3.3.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, Set

from ..net.placement import Placement
from ..net.shortest_path import PathOracle
from ..net.transit_stub import TransitStubTopology
from ..overlay.base import Overlay
from ..overlay.chord import ChordOverlay
from ..overlay.keyspace import KeySpace
from ..sim.rng import RngStreams

__all__ = ["TypeAHSP2P", "TypeAMoveReport", "TypeALookup"]


@dataclasses.dataclass
class TypeAMoveReport:
    """One leave/rejoin cycle."""

    old_key: int
    new_key: int
    join_messages: int


@dataclasses.dataclass
class TypeALookup:
    """Outcome of looking up a (possibly stale) node key."""

    target: int
    hops: int
    path_cost: float
    #: True when the route delivered to the node the caller meant — False
    #: when the key was orphaned by a move (end-to-end semantics broken).
    reached_intended: bool


class TypeAHSP2P:
    """Leave-and-rejoin HS-P2P over a static-address underlay.

    Node identity is (host id → current key); a move retires the key, so
    correspondents holding the old key lose the node until they relearn
    the new key out of band.
    """

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
        #: host id → current key
        self.key_of: Dict[int, int] = dict(host_keys)
        #: key → host id
        self.host_of: Dict[int, int] = {k: h for h, k in host_keys.items()}
        if len(self.host_of) != len(self.key_of):
            raise ValueError("host keys must be distinct")
        self.mobile_hosts = set(mobile_hosts)
        #: keys retired by moves but not yet expired from peers' state
        self.stale_keys: Set[int] = set()
        self.overlay: Overlay = ChordOverlay(space)
        self.overlay.build(list(self.key_of.values()))
        for host in self.key_of:
            self.placement.attach(host)
        self.total_join_messages = 0

    @property
    def num_nodes(self) -> int:
        return len(self.key_of)

    def move(self, host: int) -> TypeAMoveReport:
        """Host moves: leave under the old key, rejoin under a new one."""
        if host not in self.mobile_hosts:
            raise ValueError(f"host {host} is not mobile")
        old_key = self.key_of[host]
        new_key = self._fresh_key()
        self.overlay.remove_node(old_key)
        self.overlay.add_node(new_key)
        del self.host_of[old_key]
        self.host_of[new_key] = host
        self.key_of[host] = new_key
        self.stale_keys.add(old_key)
        self.placement.move(host)
        # §2.3.3: a joining node publishes its state to O(log N) nodes and
        # receives their registrations back — 2 × O(log N) messages.
        join_messages = 2 * max(1, math.ceil(math.log2(self.num_nodes)))
        self.total_join_messages += join_messages
        return TypeAMoveReport(old_key=old_key, new_key=new_key, join_messages=join_messages)

    def expire_stale_state(self) -> int:
        """Periodic freshness pass: retired keys vanish from the system."""
        n = len(self.stale_keys)
        self.stale_keys.clear()
        return n

    def lookup(self, source_host: int, target_key: int) -> TypeALookup:
        """Route from ``source_host`` toward ``target_key``.

        If ``target_key`` was retired by a move, the route still
        terminates (at whatever node now owns the key) but does *not*
        reach the intended host.
        """
        src_key = self.key_of[source_host]
        route = self.overlay.route(src_key, target_key)
        cost = 0.0
        for a, b in zip(route.hops, route.hops[1:]):
            cost += self.oracle.distance(
                self.placement.router_of(self.host_of[a]),
                self.placement.router_of(self.host_of[b]),
            )
        reached = self.host_of.get(target_key) is not None and route.success
        return TypeALookup(
            target=target_key,
            hops=route.hop_count,
            path_cost=cost,
            reached_intended=reached,
        )

    def _fresh_key(self) -> int:
        while True:
            k = self.rng.randint("type_a.keys", 0, self.space.size)
            if k not in self.host_of and k not in self.stale_keys:
                return k
