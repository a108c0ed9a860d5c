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
them, deduplicated and ascending, packed in an ``array('Q')``.  The
question is then one ``bisect``.

**The row predicate.**  Write ``off_n(x)`` for the clockwise offset of ``x``
from ``n``.  A member ``m`` is in ``row(n)`` iff it is among ``n``'s ``r``
nearest successors, or some finger start ``2**i`` lies in
``(off_n(pred(m)), off_n(m)]`` — i.e. ``off_n(m) >> off_n(pred(m)).bit_length()``
is non-zero.  ``_build_all`` builds every row at once from the member
array; under churn nothing is rebuilt: a joiner's own row is read off the
ring by ``bisect`` (``_joiner_row``), and a join or leave finds the members
that hold the key and edits their rows in place under this predicate, at
most three entries each.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from typing import Dict, List, Optional, Set

import numpy as np

from .base import Overlay
from .keyspace import KeySpace

__all__ = ["ChordOverlay"]


class ChordOverlay(Overlay):
    """Chord with exact finger tables.

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
        self._rows: Dict[int, array] = {}
        self._mask = space.size - 1

    # ------------------------------------------------------------------
    # Ownership: Chord stores k at successor(k)
    # ------------------------------------------------------------------
    def _compute_owner(self, key: int) -> int:
        """Chord stores key k at successor(k)."""
        return self.space.successor_key(self.ring, key, self._key_count)

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

    def _build_all(self, members: List[int]) -> None:
        """Every row at once — the bulk builder: one 2-D ``searchsorted``
        for the fingers (``n`` where a start lies past the last member,
        i.e. wraps to the first), index arithmetic for the successor
        lists, one line-wise sort and one filter."""
        keys = self.keys
        n = keys.size
        mask = np.uint64(self._mask)
        # Finger starts ``key + 2**i``: uint64 wraps mod 2**64, which the
        # mask reduces exactly mod 2**bits (bits <= 64).
        steps = np.array([1 << i for i in range(self.space.bits)], dtype=np.uint64)
        ranks = np.arange(1, min(self.successor_list_size, n - 1) + 1)
        neighbours = np.concatenate(
            [np.searchsorted(keys, (keys[:, None] + steps) & mask), np.arange(n)[:, None] + ranks],
            axis=1,
        )
        neighbours %= n
        offsets = keys[neighbours]
        offsets -= keys[:, None]
        offsets &= mask
        offsets.sort(axis=1)
        # Drop repeats, and the 0 of a finger start that wraps all the way
        # round to the member itself.
        keep = offsets != 0
        keep[:, 1:] &= offsets[:, 1:] != offsets[:, :-1]
        flat = array("Q", offsets[keep].tobytes())
        begin = 0
        for key, end in zip(members, np.cumsum(keep.sum(axis=1)).tolist()):
            self._rows[key] = flat[begin:end]  # (a slice has no slack)
            begin = end

    # ------------------------------------------------------------------
    # Churn repair: read the ring by ``bisect`` and edit the affected rows
    # under the row predicate (see the module docstring)
    # ------------------------------------------------------------------
    def _affected_positions(self, key: int, idx: int) -> Set[int]:
        """Positions of the members whose row a join/leave of ``key`` at
        ``ring[idx]`` changes — exactly those that hold (or held) ``key``:
        the ``r`` members before it (successor lists), and per level ``i``
        those in ``(pred − 2**i, key − 2**i]`` (``finger[i]``), one
        ``bisect`` each.  While ``2**i`` is at most ``pred`` less the
        ``r + 1``-th member before ``key``, that interval holds only members
        of the first range, so those levels are skipped.  Called with the
        membership already updated (a joiner's own position may be among
        them)."""
        ring, n, mask, r = self.ring, self._key_count, self._mask, self.successor_list_size
        pred = ring[(idx - 1) % n]
        span = (key - pred) & mask
        found = set(range(idx - r, idx))
        reach = (pred - ring[(idx - r - 1) % n]) & mask
        for i in range(reach.bit_length(), self.space.bits):
            # The members in (start, start + span], from the first past start.
            start = (pred - (1 << i)) & mask
            p = bisect_right(ring, start, 0, n)
            while p < n and ring[p] - start <= span:
                found.add(p)
                p += 1
            if p == n:  # the interval wraps past zero
                p = 0
                while p < n and (ring[p] - start - 1) & mask < span:
                    found.add(p)
                    p += 1
        return {p % n for p in found}

    def _joiner_row(self, key: int, idx: int) -> array:
        """The row of the member at ``ring[idx]`` from its definition: the
        successor list, then one ``bisect`` per finger start past its last
        entry (every start up to that names a member of the list)."""
        ring, n, mask = self.ring, self._key_count, self._mask
        r = min(self.successor_list_size, n - 1)
        offsets = {(ring[(idx + j) % n] - key) & mask for j in range(1, r + 1)}
        reach = (ring[(idx + r) % n] - key) & mask
        for i in range(reach.bit_length(), self.space.bits):
            finger = bisect_left(ring, (key + (1 << i)) & mask, 0, n)
            offsets.add((ring[finger % n] - key) & mask)
        offsets.discard(0)  # a start that wraps round to the member itself
        return array("Q", sorted(offsets))

    def _on_add(self, key: int, idx: int) -> None:
        ring, r, mask, rows = self.ring, self.successor_list_size, self._mask, self._rows
        affected = self._affected_positions(key, idx)
        affected.discard(idx)
        rows[key] = self._joiner_row(key, idx)
        # The newcomer enters the row; the one entry whose standing it can
        # change is its successor (predecessor now the newcomer) or, from
        # inside the successor list, the member pushed to rank r+1.
        for p in affected:
            member = ring[p]
            row = rows[member]
            offset = (key - member) & mask
            j = bisect_right(row, offset)
            row.insert(j, offset)
            t = j + 1 if j >= r else r
            if t < len(row) and not row[t] >> row[t - 1].bit_length():
                del row[t]
        self._record_repair(len(affected) + 1)

    def _on_remove(self, key: int, idx: int) -> None:
        ring, n, mask, rows = self.ring, self._key_count, self._mask, self._rows
        r = self.successor_list_size
        del rows[key]
        affected = self._affected_positions(key, idx)
        pred, succ = ring[(idx - 1) % n], ring[idx % n]
        # The leaver goes; the member now at rank r (if the ring still has
        # one) enters if the leaver sat in the successor list, and the
        # leaver's successor inherits any finger start between the
        # predecessor and the leaver.
        for p in affected:
            member = ring[p]
            row = rows[member]
            offset = (key - member) & mask
            j = bisect_left(row, offset)
            del row[j]
            fill = (ring[(p + r) % n] - member) & mask
            if j < r < n and (len(row) < r or row[r - 1] != fill):
                row.insert(r - 1, fill)
            if member != succ and offset >> ((pred - member) & mask).bit_length():
                heir = (succ - member) & mask
                i = bisect_left(row, heir)
                if i == len(row) or row[i] != heir:
                    row.insert(i, heir)
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
