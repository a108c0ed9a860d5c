"""Chord overlay (Stoica et al., SIGCOMM 2001) — one of the stationary-layer
substrates the paper names (§2.1, ref [12]).

Each node keeps a *finger table* (``finger[i] = successor(n + 2**i)`` for
``i = 0..m-1``) plus a successor list for robustness.  A key ``k`` is owned
by ``successor(k)`` — the first member key clockwise at-or-after ``k``.
Routing forwards to the closest *preceding* finger, so the clockwise
distance to the target strictly decreases each hop, giving the familiar
``O(log N)`` bound.

Routing only ever asks a node one thing — "which of my neighbours sits
furthest clockwise without passing the owner?" — so a node's fingers and
successor list are kept as **one row**: the clockwise offsets of all of
them, deduplicated and ascending.  The question is then one ``bisect``.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, List, Optional

import numpy as np

from .base import Overlay
from .keyspace import KeySpace

__all__ = ["ChordOverlay"]


class ChordOverlay(Overlay):
    """Chord with exact (oracle-built) finger tables.

    Parameters
    ----------
    space:
        The identifier ring.
    successor_list_size:
        Length of each node's successor list (Chord's ``r``); primarily a
        robustness feature, also the guaranteed last-resort next hop.
    """

    def __init__(self, space: KeySpace, successor_list_size: int = 4) -> None:
        super().__init__(space)
        if successor_list_size < 1:
            raise ValueError("successor_list_size must be >= 1")
        self.successor_list_size = successor_list_size
        #: member -> ascending clockwise offsets of its fingers ∪ successor
        #: list (neighbour key = ``(member + offset) mod ρ``).  The first
        #: ``successor_list_size`` entries are the successor list (the
        #: nearest members), and ``finger[i]`` is the first entry
        #: ``>= 2**i`` — both are views of the row, not separate state.
        self._rows: Dict[int, List[int]] = {}
        self._mask = space.size - 1
        # Finger-start offsets 2**i, precomputed for the vectorised build.
        # uint64 arithmetic holds key + 2**i without overflow up to 63 bits;
        # wider rings compute the starts with Python integers.
        self._finger_steps: Optional[np.ndarray] = (
            np.array([1 << i for i in range(space.bits)], dtype=np.uint64)
            if space.bits <= 63
            else None
        )

    # ------------------------------------------------------------------
    # Ownership: Chord stores k at successor(k)
    # ------------------------------------------------------------------
    def _compute_owner(self, key: int) -> int:
        """Chord stores key k at successor(k)."""
        return self.space.successor_key(self._keys, key)

    def _progress(self, node: int, target: int, owner: int):
        """(clockwise distance to the owner, key)."""
        # Clockwise distance from node to the *owner* (successor of target):
        # the quantity Chord's closest-preceding-finger rule strictly
        # decreases.  Measuring to the owner rather than the raw target key
        # keeps the final hop (onto the successor, which sits at-or-after
        # the target) monotone as well.
        return ((owner - node) & self._mask, node)

    # ------------------------------------------------------------------
    # State construction
    # ------------------------------------------------------------------
    def _reset_state(self) -> None:
        self._rows.clear()

    def _finger_positions(self, own: np.ndarray) -> np.ndarray:
        """Insertion points in the member array of ``own[j] + 2**i``, one
        line per member, ``i`` ascending (``n`` where the start lies past
        the last member, i.e. wraps to the first)."""
        if self._finger_steps is not None:
            starts = (own[:, None] + self._finger_steps) & np.uint64(self._mask)
        else:
            starts = np.array(
                [[(k + (1 << i)) & self._mask for i in range(self.space.bits)]
                 for k in own.tolist()],
                dtype=np.uint64,
            )
        return np.searchsorted(self._keys, starts)

    def _build_rows(self, positions: np.ndarray) -> None:
        """(Re)build the rows of the members at sorted ``positions``, all
        at once: one 2-D ``searchsorted`` for the fingers, index
        arithmetic for the successor lists, one line-wise sort and one
        filter."""
        keys = self._keys
        n = keys.size
        own = keys[positions]
        ranks = np.arange(1, min(self.successor_list_size, n - 1) + 1)
        neighbours = np.concatenate(
            [self._finger_positions(own), positions[:, None] + ranks], axis=1
        )
        neighbours %= n
        offsets = keys[neighbours]
        offsets -= own[:, None]
        offsets &= np.uint64(self._mask)
        offsets.sort(axis=1)
        # Drop repeats, and the 0 of a finger start that wraps all the way
        # round to the member itself.
        keep = offsets != 0
        keep[:, 1:] &= offsets[:, 1:] != offsets[:, :-1]
        flat = offsets[keep].tolist()
        begin = 0
        for key, end in zip(own.tolist(), np.cumsum(keep.sum(axis=1)).tolist()):
            self._rows[key] = flat[begin:end]
            begin = end

    def _position_of(self, members: List[int]) -> np.ndarray:
        return np.searchsorted(self._keys, np.array(members, dtype=np.uint64))

    def _build_all(self) -> None:
        self._build_rows(np.arange(self._key_count))

    def _build_node(self, key: int) -> None:
        self._build_rows(self._position_of([key]))

    def _keys_in_cw_interval(self, a: int, b: int) -> List[int]:
        """Member keys in the clockwise half-open interval (a, b].

        Empty when ``a == b``; handles wrap-around.  Used by the targeted
        churn repairs to find exactly the nodes whose state a membership
        change can touch.
        """
        if a == b:
            return []
        keys = self._keys
        ia = int(np.searchsorted(keys, np.uint64(a), side="right"))
        ib = int(np.searchsorted(keys, np.uint64(b), side="right"))
        if a < b:
            idx = range(ia, ib)
        else:  # wraps past zero
            idx = list(range(ia, keys.size)) + list(range(0, ib))
        return [int(keys[i]) for i in idx]

    def _affected_by(self, key: int) -> List[int]:
        """Members whose routing state a join/leave of ``key`` can change.

        A finger entry of node ``n`` at level ``i`` is ``successor(n + 2**i)``
        and only changes when ``n + 2**i`` lies in ``(pred(key), key]`` —
        i.e. ``n ∈ (pred(key) − 2**i, key − 2**i]``.  Successor lists only
        change for the ``r`` members preceding ``key``.
        """
        size = self.space.size
        keys = self._keys
        idx = int(np.searchsorted(keys, np.uint64(key)))
        n = keys.size
        # Predecessor in the *current* membership (key itself may or may
        # not be present; both callers arrange the membership first).
        pred = int(keys[(idx - 1) % n])
        affected = set()
        for i in range(self.space.bits):
            step = 1 << i
            lo = (pred - step) % size
            hi = (key - step) % size
            affected.update(self._keys_in_cw_interval(lo, hi))
        # Successor-list holders: the r members counter-clockwise of key.
        for j in range(1, min(self.successor_list_size, n - 1) + 1):
            affected.add(int(keys[(idx - j) % n]))
        affected.discard(key)
        return sorted(affected)

    def _on_add(self, key: int) -> None:
        # Exact targeted repair: the newcomer's row, and those of precisely
        # the members whose fingers/successors the newcomer takes over.
        # The contract tests assert equivalence with a from-scratch build.
        affected = self._affected_by(key)
        self._build_rows(self._position_of([key, *affected]))
        self._record_repair(len(affected) + 1)

    def _on_remove(self, key: int) -> None:
        self._rows.pop(key, None)
        affected = self._affected_by(key)
        if affected:
            self._build_rows(self._position_of(affected))
        self._record_repair(len(affected))

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def successor(self, key: int) -> int:
        """The immediate successor member of member ``key``."""
        row = self._rows.get(key)
        if not row:
            raise KeyError(f"{key} is not a member or overlay is trivial")
        return (key + row[0]) & self._mask

    def _hop(self, current: int, target: int, owner: int) -> Optional[int]:
        """Closest preceding finger: the neighbour furthest clockwise that
        does not pass the owner (never overshoot)."""
        row = self._rows.get(current)
        if row is None:
            raise KeyError(f"{current} is not a member")
        i = bisect_right(row, (owner - current) & self._mask)
        return (current + row[i - 1]) & self._mask if i else None

    def neighbors_of(self, key: int) -> List[int]:
        """Fingers plus successor list, deduplicated."""
        if key not in self._rows:
            raise KeyError(f"{key} is not a member")
        return sorted((key + offset) & self._mask for offset in self._rows[key])
