"""State-pairs and per-node state tables.

The paper's central data object is the *state-pair* ``<hash key, network
address>`` (§1): "a state ... associates the hash key of a known peer and
its network address".  :class:`StatePair` adds the lease/TTL machinery of
§2.3.2 (a state "is associated with a time-to-live (TTL) value ... once the
contract of a state expires, the state is no longer valid") and the
``null``/invalid address states of Figure 2.

:class:`StateTable` is the per-node list of state-pairs with the lookup
primitives routing needs ("does there exist a node closer to the designated
key j?").
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, Iterator, List, Optional

from .. import sanitize as _sanitize
from ..net.address import NetworkAddress
from .keyspace import KeySpace

__all__ = ["StatePair", "StateTable"]


@dataclasses.dataclass
class StatePair:
    """One routing-table entry: a known peer's key and (maybe) its address.

    Attributes
    ----------
    key:
        The peer's hash key.
    addr:
        Its network address, or ``None`` when unresolved (the paper's
        ``null``).
    ttl:
        Lease duration granted at each refresh; ``math.inf`` for
        non-expiring entries (stationary peers under early binding).
    refreshed_at:
        Virtual time of the most recent refresh.
    capacity:
        The peer's advertised capacity ``C_X`` (§2.3.1) — carried with the
        state so LDT scheduling can sort registries by capacity.
    """

    key: int
    addr: Optional[NetworkAddress] = None
    ttl: float = math.inf
    refreshed_at: float = 0.0
    capacity: float = 1.0

    @property
    def expires_at(self) -> float:
        return self.refreshed_at + self.ttl

    def is_fresh(self, now: float) -> bool:
        """Lease still in force at ``now``."""
        return now <= self.expires_at

    def is_resolved(self, now: float) -> bool:
        """Address known *and* lease fresh — usable for direct forwarding."""
        return self.addr is not None and self.is_fresh(now)

    def invalidate(self) -> None:
        """Drop the address (peer moved; cached location is void)."""
        self.addr = None

    def refresh(self, now: float, addr: Optional[NetworkAddress] = None, ttl: Optional[float] = None) -> None:
        """Renew the lease, optionally updating address and TTL."""
        if _sanitize.ACTIVE:
            _sanitize.check_lease_refresh(self, now, ttl)
        self.refreshed_at = now
        if addr is not None:
            self.addr = addr
        if ttl is not None:
            self.ttl = ttl


class StateTable:
    """The set of state-pairs a node maintains (``state[i]`` in the paper).

    One entry per known peer key; inserting an existing key merges (keeps
    the fresher information).  Lookup primitives implement the closeness
    tests of Figure 2 and Figure 5.
    """

    def __init__(self, space: KeySpace, owner_key: int) -> None:
        self.space = space
        self.owner_key = space.validate(owner_key)
        self._entries: Dict[int, StatePair] = {}

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def insert(self, pair: StatePair) -> StatePair:
        """Add or merge ``pair``; returns the stored entry.

        A node never stores a state for itself.
        """
        if pair.key == self.owner_key:
            raise ValueError("a node does not keep a state-pair for itself")
        self.space.validate(pair.key)
        existing = self._entries.get(pair.key)
        if existing is None:
            self._entries[pair.key] = pair
            return pair
        # Merge: prefer the newer refresh; carry capacity forward.
        if pair.refreshed_at >= existing.refreshed_at:
            existing.refresh(pair.refreshed_at, addr=pair.addr, ttl=pair.ttl)
            existing.capacity = pair.capacity
        return existing

    def renew(
        self, key: int, addr: Optional[NetworkAddress], now: float, ttl: float
    ) -> StatePair:
        """Learn that ``key`` is at ``addr`` as of ``now``: create its
        state-pair, or renew the one held, leased for ``ttl``."""
        pair = self._entries.get(key)
        if pair is None:
            return self.insert(StatePair(key=key, addr=addr, ttl=ttl, refreshed_at=now))
        pair.refresh(now, addr=addr, ttl=ttl)
        return pair

    def remove(self, key: int) -> None:
        """Drop the entry for ``key`` (KeyError when absent)."""
        del self._entries[key]

    def discard(self, key: int) -> None:
        """Drop the entry for ``key`` if present."""
        self._entries.pop(key, None)

    def invalidate(self, key: int) -> bool:
        """Void the cached address for ``key``; True when an entry existed."""
        entry = self._entries.get(key)
        if entry is None:
            return False
        entry.invalidate()
        return True

    def expire(self, now: float) -> List[int]:
        """Remove all entries whose lease lapsed; returns the removed keys."""
        dead = [k for k, e in self._entries.items() if not e.is_fresh(now)]
        for k in dead:
            del self._entries[k]
        return dead

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def get(self, key: int) -> Optional[StatePair]:
        """The entry for ``key``, or ``None``."""
        return self._entries.get(key)

    def __contains__(self, key: int) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[StatePair]:
        # Deterministic iteration order (sorted by key) keeps simulations
        # reproducible across Python hash randomisation.
        for k in sorted(self._entries):
            yield self._entries[k]

    def keys(self) -> List[int]:
        """All entry keys, ascending."""
        return sorted(self._entries)

    def closest_to(self, target: int) -> Optional[StatePair]:
        """Entry whose key is nearest ``target`` (ring metric, ties small)."""
        best: Optional[StatePair] = None
        for entry in self:
            if best is None or self.space.is_closer(entry.key, best.key, target):
                best = entry
        return best

    def closer_than_owner(self, target: int) -> Optional[StatePair]:
        """The Figure-2 test: an entry strictly closer to ``target`` than
        this node itself, or ``None`` (meaning the owner is the closest
        node it knows — routing terminates here)."""
        best = self.closest_to(target)
        if best is not None and self.space.is_closer(best.key, self.owner_key, target):
            return best
        return None
