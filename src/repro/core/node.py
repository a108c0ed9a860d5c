"""Bristle node model.

A :class:`BristleNode` is one participant: its hash key, mobility class
(stationary layer vs mobile layer, §2.1), capacity ``C_X`` and present
workload ``Used_i`` (the Fig-4 inputs), its state-pair table, and the
registration bookkeeping of §2.3.1 — the set ``R(i)`` of nodes registered
*to* it (interested in its movement) and the set of keys it registered
interest *in*.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Set

from ..net.address import NetworkAddress
from ..overlay.keyspace import KeySpace
from ..overlay.state import StateTable

__all__ = ["BristleNode", "RegistryEntry"]


@dataclasses.dataclass
class RegistryEntry:
    """One member of ``R(i)``: a node registered to a mobile node.

    Registration carries the registrant's capacity (§2.3.1: "when X
    registers itself to the nodes it is interested in, it also reports its
    capacity C_X") so the Fig-4 scheduler can sort by it.
    """

    key: int
    capacity: float
    registered_at: float = 0.0


class BristleNode:
    """One Bristle participant.

    Parameters
    ----------
    key:
        Hash key (also used as the host id for placement).
    mobile:
        True for mobile-layer nodes that may change attachment points.
    capacity:
        The node's ability ``C_X`` — "the maximum network bandwidth, the
        number of maximum network connections, the computational power,
        etc." (§2.3.1).  The Fig-8 experiments use network connections.
    space:
        Identifier ring (for the node's state table).
    """

    def __init__(
        self,
        key: int,
        mobile: bool,
        capacity: float,
        space: KeySpace,
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.key = space.validate(key)
        self.mobile = mobile
        self.capacity = float(capacity)
        self.used = 0.0  # present workload Used_i
        self.state = StateTable(space, owner_key=key)
        #: nodes registered to this node (R(i)) — populated for nodes whose
        #: movement others are interested in (primarily mobile nodes).
        self.registry: Dict[int, RegistryEntry] = {}
        #: keys this node registered interest in (it appears in their R).
        self.subscriptions: Set[int] = set()
        #: current network address; managed by the network's Placement.
        self.address: Optional[NetworkAddress] = None
        #: movement counter (mirrors the address epoch).
        self.moves = 0

    # ------------------------------------------------------------------
    # Capacity / workload
    # ------------------------------------------------------------------
    @property
    def available(self) -> float:
        """Remaining capacity ``Avail_i = C_i − Used_i`` (Fig 4)."""
        return self.capacity - self.used

    def consume(self, amount: float) -> None:
        """Account ``amount`` of workload (may push the node to overload)."""
        if amount < 0:
            raise ValueError("workload amount must be non-negative")
        self.used += amount

    def release(self, amount: float) -> None:
        """Release previously-consumed workload."""
        if amount < 0:
            raise ValueError("workload amount must be non-negative")
        self.used -= min(amount, self.used)

    # ------------------------------------------------------------------
    # Registration (§2.3.1)
    # ------------------------------------------------------------------
    def register(self, entry: RegistryEntry) -> bool:
        """Admit ``entry`` into ``R(self)`` (idempotent per key); True when
        its key was not registered before."""
        if entry.key == self.key:
            raise ValueError("a node does not register to itself")
        is_new = entry.key not in self.registry
        self.registry[entry.key] = entry
        return is_new

    def unregister(self, key: int) -> None:
        """Remove ``key`` from ``R(self)`` if present."""
        self.registry.pop(key, None)

    def registry_entries(self) -> list:
        """``R(self)`` in deterministic (key-sorted) order."""
        return [self.registry[k] for k in sorted(self.registry)]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = "mobile" if self.mobile else "stationary"
        return f"BristleNode(key={self.key:#x}, {kind}, C={self.capacity})"
