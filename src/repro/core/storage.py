"""DHT data storage over the mobile layer.

The paper's introduction motivates Bristle with exactly this workload:
under a Type A architecture node movement "incurs extra maintenance
overhead and unavailability of stored data", while Bristle keeps keys
stable so "the old state of a node can be retained".

:class:`DataStore` implements the standard HS-P2P storage contract on a
:class:`~repro.core.bristle.BristleNetwork`:

* ``put(key, value)`` stores the item at the owner of ``key`` plus
  ``replication − 1`` ring-adjacent replicas (§2.3.2's availability rule);
* ``get(source, key)`` routes a lookup from ``source`` (paying Fig-2
  address resolutions for mobile hops) and reads the item at the first
  live holder;
* membership churn triggers **handoff**: a joining node takes over the
  items it now owns, a leaving node pushes its items to the new owners.

Since a node's hash key survives movement, the placement never changes
when nodes move — which is the whole point, and what the availability
tests pin.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional, Set

from .bristle import BristleNetwork
from .location import holders_near
from .routing import RouteTrace, route_with_resolution

__all__ = ["DataStore", "StoredItem", "GetResult"]


@dataclasses.dataclass
class StoredItem:
    """One stored (key, value) with provenance."""

    key: int
    value: Any
    stored_at: float
    version: int = 0


@dataclasses.dataclass
class GetResult:
    """Outcome of a :meth:`DataStore.get`."""

    key: int
    value: Optional[Any]
    holder: Optional[int]
    trace: RouteTrace

    @property
    def found(self) -> bool:
        return self.holder is not None

    @property
    def app_hops(self) -> int:
        return self.trace.app_hops

    @property
    def path_cost(self) -> float:
        return self.trace.path_cost


class DataStore:
    """Replicated key-value storage on the mobile layer.

    Parameters
    ----------
    net:
        The Bristle network providing membership, routing and ownership.
    replication:
        Holders per item (owner + ring-adjacent replicas); defaults to the
        network's configured replication factor.
    """

    def __init__(self, net: BristleNetwork, replication: Optional[int] = None) -> None:
        self.net = net
        self.replication = (
            replication if replication is not None else net.config.replication
        )
        if self.replication < 1:
            raise ValueError("replication must be >= 1")
        #: node key → {data key → item}
        self._shelves: Dict[int, Dict[int, StoredItem]] = {}
        #: nodes considered failed (their shelves are unreachable)
        self._failed: Set[int] = set()
        self.put_count = 0
        self.get_count = 0
        self.handoff_items = 0

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def holders_for(self, key: int) -> List[int]:
        """Owner plus ring-adjacent replicas among *mobile-layer* members."""
        overlay = self.net.mobile_layer
        return holders_near(overlay, overlay.owner_of(key), self.replication)

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def put(self, key: int, value: Any) -> List[int]:
        """Store ``value`` under ``key``; returns the holder node keys."""
        self.net.space.validate(key)
        holders = self.holders_for(key)
        version = 0
        for h in holders:
            shelf = self._shelves.setdefault(h, {})
            prev = shelf.get(key)
            if prev is not None:
                version = max(version, prev.version + 1)
        item_version = version
        for h in holders:
            self._shelves.setdefault(h, {})[key] = StoredItem(
                key=key, value=value, stored_at=self.net.now, version=item_version
            )
        self.put_count += 1
        return holders

    def get(self, source: int, key: int) -> GetResult:
        """Route a lookup for ``key`` from node ``source`` and read it.

        The route pays the usual mobile-layer address resolutions; the
        read happens at the route's terminus (the owner) or, if that
        holder failed, at the first live replica (one extra ring hop per
        fallback is already included in the trace cost model for the
        common case; fallbacks reuse the terminus position).
        """
        self.get_count += 1
        trace = route_with_resolution(self.net, source, key)
        holders = self.holders_for(key)
        for h in holders:
            if h in self._failed:
                continue
            item = self._shelves.get(h, {}).get(key)
            if item is not None:
                return GetResult(key=key, value=item.value, holder=h, trace=trace)
        return GetResult(key=key, value=None, holder=None, trace=trace)

    def contains(self, key: int) -> bool:
        """True when at least one live holder stores ``key``."""
        return any(
            key in self._shelves.get(h, {})
            for h in self.holders_for(key)
            if h not in self._failed
        )

    # ------------------------------------------------------------------
    # Churn integration
    # ------------------------------------------------------------------
    def handoff_after_join(self, new_node: int) -> int:
        """Re-place items whose holder set now includes ``new_node``.

        Called after the node joined the mobile layer.  Returns the
        number of items copied.
        """
        moved = 0
        # Items stored anywhere whose holder set changed: checking the
        # ring neighbours of the newcomer suffices (placement is local).
        for shelf_owner in list(self._shelves):
            for key, item in list(self._shelves[shelf_owner].items()):
                holders = self.holders_for(key)
                if new_node in holders and key not in self._shelves.get(new_node, {}):
                    self._shelves.setdefault(new_node, {})[key] = item
                    moved += 1
                # Drop from nodes no longer responsible.
                if shelf_owner not in holders:
                    del self._shelves[shelf_owner][key]
        self.handoff_items += moved
        return moved

    def handoff_before_leave(self, leaving: int) -> int:
        """Push the leaving node's items to their new holders.

        Call *after* removing ``leaving`` from the mobile layer (so the
        new ownership is visible) but before discarding the node.
        """
        shelf = self._shelves.pop(leaving, {})
        moved = 0
        for key, item in shelf.items():
            for h in self.holders_for(key):
                if key not in self._shelves.get(h, {}):
                    self._shelves.setdefault(h, {})[key] = item
                    moved += 1
        self.handoff_items += moved
        return moved

    def drop_failed_node(self, node: int) -> None:
        """Mark a holder as failed (its shelf becomes unreachable) —
        replicas keep items available (§2.3.2)."""
        self._failed.add(node)

    def restore_node(self, node: int) -> None:
        """Bring a failed holder back (its shelf becomes readable)."""
        self._failed.discard(node)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def items_at(self, node: int) -> Dict[int, StoredItem]:
        """Shelf of one node (empty dict for unknown nodes)."""
        return dict(self._shelves.get(node, {}))

    def shelf_sizes(self) -> Dict[int, int]:
        """Item count per (non-empty) holder shelf."""
        return {n: len(s) for n, s in self._shelves.items() if s}

    def total_copies(self) -> int:
        """Total stored copies across all shelves."""
        return sum(len(s) for s in self._shelves.values())

    def availability(self, keys: List[int]) -> float:
        """Fraction of ``keys`` with at least one live replica."""
        if not keys:
            return 1.0
        return sum(1 for k in keys if self.contains(k)) / len(keys)
