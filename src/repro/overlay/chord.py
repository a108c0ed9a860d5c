"""Chord overlay (Stoica et al., SIGCOMM 2001) — one of the stationary-layer
substrates the paper names (§2.1, ref [12]).

Each node keeps a *finger table* (``finger[i] = successor(n + 2**i)`` for
``i = 0..m-1``) plus a successor list for robustness.  A key ``k`` is owned
by ``successor(k)`` — the first member key clockwise at-or-after ``k``.
Routing forwards to the closest *preceding* finger, so the clockwise
distance to the target strictly decreases each hop, giving the familiar
``O(log N)`` bound.
"""

from __future__ import annotations

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
        self._fingers: Dict[int, List[int]] = {}
        self._successors: Dict[int, List[int]] = {}
        # Finger-start offsets 2**i, precomputed for the vectorised build.
        # uint64 arithmetic holds key + 2**i without overflow up to 63 bits;
        # wider rings fall back to the scalar per-finger path.
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

    def progress_key(self, node: int, target: int):
        """(clockwise distance to the owner, key)."""
        # Clockwise distance from node to the *owner* (successor of target):
        # the quantity Chord's closest-preceding-finger rule strictly
        # decreases.  Measuring to the owner rather than the raw target key
        # keeps the final hop (onto the successor, which sits at-or-after
        # the target) monotone as well.
        return (self.space.clockwise_distance(node, self.owner_of(target)), node)

    # ------------------------------------------------------------------
    # State construction
    # ------------------------------------------------------------------
    def _reset_state(self) -> None:
        self._fingers.clear()
        self._successors.clear()

    def _build_all(self) -> None:
        """Every member's fingers and successor list in one pass.

        One 2-D ``searchsorted`` over ``keys[:, None] + 2**i`` replaces the
        per-node kernels of :meth:`_build_node` (kept for churn repair and
        as the parity reference); successor lists are index arithmetic on
        the sorted ring.
        """
        if self._finger_steps is None:
            super()._build_all()
            return
        keys = self._keys
        n = keys.size
        starts = (keys[:, None] + self._finger_steps) % np.uint64(self.space.size)
        idx = np.searchsorted(keys, starts) % n
        # Finger starts sweep clockwise from the node, so their successors
        # never step backwards and the node itself can only close the row:
        # "not self, not the previous candidate" is the scalar path's filter.
        own = np.arange(n)[:, None]
        keep = idx != own
        keep[:, 1:] &= idx[:, 1:] != idx[:, :-1]
        flat = keys[idx[keep]].tolist()
        ends = np.cumsum(keep.sum(axis=1)).tolist()
        members = keys.tolist()
        begin = 0
        for key, end in zip(members, ends):
            self._fingers[key] = flat[begin:end]
            begin = end
        hops = np.arange(1, min(self.successor_list_size, n - 1) + 1)
        succ = keys[(own + hops) % n].tolist()
        self._successors.update(zip(members, succ))

    def _build_node(self, key: int) -> None:
        size = self.space.size
        fingers: List[int] = []
        last = None
        if self._finger_steps is not None:
            # One batched searchsorted for all m finger starts instead of m
            # scalar successor_key calls; candidate order (ascending i) and
            # the consecutive-duplicate filter match the scalar path exactly.
            starts = (np.uint64(key) + self._finger_steps) % np.uint64(size)
            idx = np.searchsorted(self._keys, starts) % self._keys.size
            for f in self._keys[idx].tolist():
                f = int(f)
                if f != key and f != last:
                    fingers.append(f)
                    last = f
        else:
            for i in range(self.space.bits):
                start = (key + (1 << i)) % size
                f = self.space.successor_key(self._keys, start)
                if f != key and f != last:
                    fingers.append(f)
                    last = f
        self._fingers[key] = fingers
        # Successor list: the next r members clockwise.
        idx = int(np.searchsorted(self._keys, np.uint64(key)))
        n = self._keys.size
        succs = []
        for j in range(1, min(self.successor_list_size, n - 1) + 1):
            succs.append(int(self._keys[(idx + j) % n]))
        self._successors[key] = succs

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
        if self.is_member(key):
            pred = int(keys[(idx - 1) % n])
        else:
            pred = int(keys[(idx - 1) % n]) if idx > 0 else int(keys[-1])
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
        # Exact targeted repair: build the newcomer's state, then
        # recompute precisely the members whose fingers/successors the
        # newcomer takes over.  The contract tests assert equivalence
        # with a from-scratch oracle build.
        self._build_node(key)
        affected = self._affected_by(key)
        for member in affected:
            self._build_node(member)
        self._record_repair(len(affected) + 1)

    def _on_remove(self, key: int) -> None:
        self._fingers.pop(key, None)
        self._successors.pop(key, None)
        affected = self._affected_by(key)
        for member in affected:
            self._build_node(member)
        self._record_repair(len(affected))

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def successor(self, key: int) -> int:
        """The immediate successor member of member ``key``."""
        succs = self._successors.get(key)
        if not succs:
            raise KeyError(f"{key} is not a member or overlay is trivial")
        return succs[0]

    def next_hop(self, current: int, target: int) -> Optional[int]:
        """Closest preceding finger toward the owner."""
        if current not in self._fingers:
            raise KeyError(f"{current} is not a member")
        owner = self.owner_of(target)
        if current == owner:
            return None
        # Closest preceding finger: the neighbour with the largest clockwise
        # position still strictly before the owner (never overshoot).
        best: Optional[int] = None
        best_cw = -1
        my_cw_owner = self.space.clockwise_distance(current, owner)
        for f in self._fingers[current] + self._successors[current]:
            cw = self.space.clockwise_distance(current, f)
            if 0 < cw <= my_cw_owner and cw > best_cw:
                best, best_cw = f, cw
        return best

    def neighbors_of(self, key: int) -> List[int]:
        """Fingers plus successor list, deduplicated."""
        if key not in self._fingers:
            raise KeyError(f"{key} is not a member")
        return sorted(set(self._fingers[key]) | set(self._successors[key]))
