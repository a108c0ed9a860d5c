"""Pastry overlay (Rowstron & Druschel, Middleware 2001) — a prefix-routing
stationary-layer substrate (§2.1, ref [9]).

Each node keeps:

* a **routing table** with one row per digit position: the entry at
  ``(row, d)`` is some member sharing the first ``row`` digits with the
  local key and whose digit at position ``row`` is ``d``;
* a **leaf set** of the ``l/2`` numerically closest members on each side.

A key is owned by the ring-nearest member.  Each routing step either
lengthens the shared prefix with the target or (within the leaf set)
shrinks numeric distance, giving ``O(log_{2^b} N)`` hops.

A table is one packed :class:`~repro.overlay.rows.SlotRow` indexed by
``row * 2**b + digit`` — routing asks it for exactly one slot per hop,
computed with two shifts and a mask — and a leaf set one ``array('Q')``.
Every row is derived from the sorted member array alone: the bulk build,
a join and a leave all resolve (member, sibling block) pairs through the
one slot-rule hook :meth:`PastryOverlay._bulk_pair_winners`, with or
without a proximity callback and at any key width up to 64 bits.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from typing import Dict, Iterator, List, Optional, Set, Tuple

import numpy as np

from . import prefix as _prefix
from .base import Overlay, ProximityFn
from .keyspace import KeySpace
from .rows import SlotRow, popcount

__all__ = ["PastryOverlay"]


class PastryOverlay(Overlay):
    """Pastry with exact routing tables and leaf sets.

    Parameters
    ----------
    space:
        The identifier ring (``space.digit_bits`` is Pastry's ``b``).
    leaf_set_size:
        Total leaf-set size ``l`` (half on each side).
    proximity:
        Optional network-proximity callback; when given, routing-table
        slots with several candidates pick the proximally closest
        (Pastry's locality heuristic).  Without it the numerically
        closest candidate is chosen (deterministic).
    """

    def __init__(
        self,
        space: KeySpace,
        leaf_set_size: int = 8,
        proximity: Optional[ProximityFn] = None,
    ) -> None:
        super().__init__(space, proximity)
        if leaf_set_size < 2 or leaf_set_size % 2 != 0:
            raise ValueError("leaf_set_size must be an even integer >= 2")
        self.leaf_set_size = leaf_set_size
        #: member -> its routing table, slot = ``row * digit_base + digit``
        self._table: Dict[int, SlotRow] = {}
        #: member -> its leaf set, ascending
        self._leaves: Dict[int, array] = {}
        #: member -> leaves ∪ table entries, ascending; built on first use
        self._known: Dict[int, array] = {}

    # ------------------------------------------------------------------
    # State construction
    # ------------------------------------------------------------------
    def _reset_state(self) -> None:
        self._table.clear()
        self._leaves.clear()

    def _routing_changed(self) -> None:
        super()._routing_changed()
        self._known.clear()

    def _build_all(self, members: List[int]) -> None:
        self._build_leaves(np.arange(self._key_count), members)
        self._bulk_build_tables(members)

    def _build_leaves(
        self, positions: np.ndarray, members: Optional[List[int]] = None
    ) -> None:
        """(Re)build the leaf sets of the members at sorted ``positions``:
        the ``l/2`` members on each side, one window gather for all."""
        keys = self.keys
        n = int(keys.size)
        w = min(self.leaf_set_size // 2, n - 1)
        window = keys[(positions[:, None] + np.arange(-w, w + 1)) % n]
        for key, row in zip(members or keys[positions].tolist(), window.tolist()):
            self._leaves[key] = array("Q", sorted(set(row) - {key}))

    def _prefer(self, local: int, candidate: int, incumbent: int) -> bool:
        """Pastry's proximity rule: ``candidate`` displaces ``incumbent``
        in a slot of ``local``'s table when it is proximally closer."""
        assert self.proximity is not None
        return self.proximity(local, candidate) < self.proximity(local, incumbent)

    def _bulk_pair_winners(
        self,
        keys: np.ndarray,
        starts: np.ndarray,
        ends: np.ndarray,
        pair_node: np.ndarray,
        pair_block: np.ndarray,
    ) -> np.ndarray:
        """Slot winner for each (node, sibling block) pair: ``pair_node``
        indexes ``keys``, ``pair_block`` the half-open runs ``starts`` /
        ``ends`` of it.  The one slot-rule hook of the build and both
        repairs; every rule it applies is a total order per node.

        With a proximity callback, each block's members are folded in
        ascending key order under the pairwise comparator :meth:`_prefer`,
        the incumbent kept unless a candidate is strictly preferred.
        Otherwise the ring-closest rule: a block is a value-contiguous key
        interval not containing the node, over which ring distance to the
        node has no interior minimum — the winner is always one of the two
        block endpoints, ties to the smaller key (= the low endpoint).
        """
        if self.proximity is not None:
            prefer, winners = self._prefer, []
            for node, begin, end in zip(
                keys[pair_node].tolist(), starts[pair_block].tolist(), ends[pair_block].tolist()
            ):
                best, *rest = keys[begin:end].tolist()
                for candidate in rest:
                    if prefer(node, candidate, best):
                        best = candidate
                winners.append(best)
            return np.array(winners, dtype=np.uint64)
        lo = keys[starts[pair_block]]
        hi = keys[ends[pair_block] - 1]
        x = keys[pair_node]
        # ring distance of each endpoint to the paired node
        mask = np.uint64(self.space.size - 1)
        d_lo = np.minimum((lo - x) & mask, (x - lo) & mask)
        d_hi = np.minimum((hi - x) & mask, (x - hi) & mask)
        return np.where(d_lo <= d_hi, lo, hi)

    def _bulk_build_tables(self, members: List[int]) -> None:
        """All routing tables at once via the level-block decomposition.

        At level ``r`` the sorted members split into blocks sharing their
        first ``r + 1`` digits; node ``x``'s slot ``(r, d)`` draws from the
        sibling block with digit ``d`` under ``x``'s level-``r`` prefix.
        Enumerating (node, sibling-block) pairs per level, node-major, and
        resolving each with :meth:`_bulk_pair_winners` yields every table
        entry in ``(node, slot)`` order without a per-node scan; only the
        winners outlive their level.
        """
        space, keys = self.space, self.keys
        n = int(keys.size)
        filled = np.zeros((n, space.num_digits * space.digit_base), dtype=bool)
        levels: List[Tuple[np.ndarray, np.ndarray]] = []  # (entries per node, winners)
        for row in range(space.num_digits):
            starts, ends, codes = _prefix.level_blocks(space, keys, row)
            nblocks = int(starts.size)
            # Blocks under one parent prefix are siblings: a member pairs
            # with every block of its group but its own (a deeper row's).
            parents = codes >> np.uint64(space.digit_bits)
            gstarts = np.concatenate([[0], np.flatnonzero(parents[1:] != parents[:-1]) + 1])
            gsizes = np.diff(np.concatenate([gstarts, [nblocks]]))
            block_of_node = np.repeat(np.arange(nblocks), ends - starts)
            count = np.repeat(gsizes, gsizes)[block_of_node] - 1
            if not count.any():
                continue
            pair_node = np.repeat(np.arange(n), count)
            pair_block = np.repeat(gstarts, gsizes)[block_of_node][pair_node]
            pair_block += _prefix.within_runs(count)
            pair_block += pair_block >= block_of_node[pair_node]
            filled[pair_node, self._slots(row, codes[pair_block])] = True
            levels.append(
                (count, self._bulk_pair_winners(keys, starts, ends, pair_node, pair_block))
            )
        # Scatter each level's winners behind the node's earlier rows,
        # straight into the words the rows are sliced from.
        stops = np.cumsum(sum((count for count, _ in levels), np.zeros(n, dtype=np.int64)))
        words = array("Q", bytes(8 * int(stops[-1])))
        flat = np.frombuffer(words, dtype=np.uint64)
        cursor = np.concatenate([[0], stops[:-1]])
        for count, winners in levels:
            flat[np.repeat(cursor, count) + _prefix.within_runs(count)] = winners
            cursor += count
        del levels, flat
        bitmaps = np.packbits(filled, axis=1, bitorder="little")
        stride = bitmaps.shape[1]
        raw = bitmaps.tobytes()
        begin = 0
        for i, (key, stop) in enumerate(zip(members, stops.tolist())):
            # (a slice of an array is allocated exactly, with no slack)
            self._table[key] = SlotRow(
                int.from_bytes(raw[i * stride : (i + 1) * stride], "little"),
                words[begin:stop],
            )
            begin = stop

    def _slots(self, row: int, codes: np.ndarray) -> np.ndarray:
        """Slot ``(row, last digit of the prefix code)`` per code (int64)."""
        base = self.space.digit_base
        return (codes & np.uint64(base - 1)).astype(np.int64) + row * base

    # ------------------------------------------------------------------
    # Targeted churn repair
    # ------------------------------------------------------------------
    def _repair_leaf_window(self, idx: int) -> Set[int]:
        """Rebuild the leaf sets a membership change at sorted position
        ``idx`` can touch — the sliding windows overlapping that position —
        and return their members."""
        n = self._key_count
        w = min(self.leaf_set_size // 2, n - 1)
        positions = np.unique((idx + np.arange(-w, w + 1)) % n)
        self._build_leaves(positions)
        return set(self.keys[positions].tolist())

    def _key_levels(
        self, keys: np.ndarray, key: int
    ) -> Iterator[Tuple[int, int, int, int, int]]:
        """``(row, plo, phi, lo, hi)`` per digit level at which some member
        shares ``key``'s first ``row`` digits but not the next: the index
        ranges in ``keys`` of that parent block ``P`` and of ``key``'s own
        block ``B`` (``row + 1`` digits shared).  The members whose slot
        ``(row, digit(key, row))`` draws from ``B`` are exactly ``P \\ B``."""
        plo, phi = 0, int(keys.size)
        for row in range(self.space.num_digits):
            if phi - plo <= 1:
                return
            lo, hi = _prefix.prefix_block_range(self.space, keys, key, row)
            if hi - lo < phi - plo:
                yield row, plo, phi, lo, hi
            plo, phi = lo, hi

    def _facing_winners(
        self, keys: np.ndarray, facing: np.ndarray, lo: int, hi: int
    ) -> np.ndarray:
        """Winner among ``keys[lo:hi]`` for each member at ``facing``."""
        return self._bulk_pair_winners(
            keys, np.array([lo]), np.array([hi]), facing, np.zeros(facing.size, dtype=np.int64)
        )

    def _won_by(
        self, keys: np.ndarray, key: int, plo: int, phi: int, lo: int, hi: int
    ) -> np.ndarray:
        """Positions of the members of ``P \\ B`` whose slot ``key`` wins."""
        facing = np.concatenate([np.arange(plo, lo), np.arange(hi, phi)])
        return facing[self._facing_winners(keys, facing, lo, hi) == np.uint64(key)]

    def _on_add(self, key: int, idx: int) -> None:
        space, keys = self.space, self.keys
        # 1. Leaf sets: only the windows around the insertion point move
        #    (the newcomer's own among them).
        repaired = self._repair_leaf_window(idx)
        own_slots: List[int] = []
        own_entries: List[int] = []
        for row, plo, phi, lo, hi in self._key_levels(keys, key):
            # 2. The newcomer's row: one winner per sibling block of B in P.
            starts, ends, codes = _prefix.level_blocks(space, keys[plo:phi], row)
            sibling = starts != lo - plo
            winners = self._bulk_pair_winners(
                keys,
                starts[sibling] + plo,
                ends[sibling] + plo,
                np.full(starts.size - 1, idx),
                np.arange(starts.size - 1),
            )
            own_slots += self._slots(row, codes[sibling]).tolist()
            own_entries += winners.tolist()
            # 3. Tables: the newcomer challenges one slot of each member
            #    facing B.  The slot rule is a total order, so "the key wins
            #    over the new B" equals winner-vs-challenger.
            slot = row * space.digit_base + space.digit(key, row)
            members = keys[self._won_by(keys, key, plo, phi, lo, hi)].tolist()
            for member in members:
                self._table[member][slot] = key
            repaired.update(members)
        self._table[key] = SlotRow(sum(1 << slot for slot in own_slots), array("Q", own_entries))
        self._record_repair(len(repaired))

    def _on_remove(self, key: int, idx: int) -> None:
        del self._leaves[key], self._table[key]
        space, keys = self.space, self.keys
        # 1. Leaf sets around the departure position.
        repaired = self._repair_leaf_window(idx)
        # 2. Tables: the members that referenced the departed key are those
        #    for which it won on the array with the key still in; all of
        #    them at row r draw replacements from B without the key.
        before = np.insert(keys, idx, np.uint64(key))
        for row, plo, phi, lo, hi in self._key_levels(before, key):
            held = self._won_by(before, key, plo, phi, lo, hi)
            if not held.size:
                continue
            held -= held > idx  # positions once the key is gone
            members = keys[held].tolist()
            slot = row * space.digit_base + space.digit(key, row)
            if hi - lo > 1:
                heirs = self._facing_winners(keys, held, lo, hi - 1).tolist()
                for member, heir in zip(members, heirs):
                    self._table[member][slot] = heir
            else:
                for member in members:
                    del self._table[member][slot]
            repaired.update(members)
        self._record_repair(len(repaired))

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _progress(self, node: int, target: int, owner: int):
        """(digit mismatch depth, ring distance, key) toward ``target``."""
        # Lexicographic: each Pastry step grows the shared prefix or
        # shrinks numeric distance.  The depth is the number of trailing
        # digits from the first mismatch on: ceil(bit_length(xor) / b).
        b, size = self.space.digit_bits, self.space.size
        dist = (node - target) % size
        if dist > size >> 1:
            dist = size - dist
        return (((node ^ target).bit_length() + b - 1) // b, dist, node)

    def _slot_toward(self, current: int, key: int) -> int:
        """The slot of ``current``'s table for members sharing one more
        digit with ``key`` than ``current`` does (``current != key``)."""
        space = self.space
        b = space.digit_bits
        row = (space.bits - (current ^ key).bit_length()) // b
        digit = (key >> (space.bits - b * (row + 1))) & (space.digit_base - 1)
        return (row << b) | digit

    def _hop(self, current: int, target: int, owner: int) -> Optional[int]:
        """Leaf-set delivery, else the routing-table prefix entry.

        1. The owner is a leaf: deliver.  (It is the ring-closest member
           overall, so it is the best leaf exactly when it is a leaf.)
        2. The table slot matching one more digit of the target.  A slot
           ``(row, d)`` only ever holds members sharing ``row`` digits with
           ``current`` and digit ``d`` next, so on exact tables the entry
           is strictly closer by prefix: nothing to check.
        3. That slot is empty, i.e. no member at all shares ``row + 1``
           digits with the target — how most routes end (the population
           only fills about ``log_{2^b} N`` digits) and most hops toward a
           key outside the populated range: the known node closest by
           (prefix, ring distance, key), if one beats ``current`` — one
           bisect (:meth:`_closest_known`).
        4. Leaf-set delivery mode: walk the ring toward the owner through
           the leaf set.  Exact state never gets here — members between
           ``current`` and the target win step 2 or 3, and once they run
           out the owner is ``current``'s ring neighbour, delivered to by
           step 1 even across an aligned digit boundary (the route guard
           accepts that hop by ring distance).  Kept for a leaf set that
           predates a membership change.
        """
        table = self._table.get(current)
        if table is None:
            raise KeyError(f"{current} is not a member")
        leaves = self._leaves[current]
        if owner in leaves:
            return owner

        slot = self._slot_toward(current, target)
        bit, filled = 1 << slot, table.bitmap
        if filled & bit:
            return table.members[popcount(filled & (bit - 1))]

        best = self._closest_known(current, target)
        if best is not None:
            return best

        space = self.space
        nearer: Optional[int] = None
        best_dist = space.ring_distance(current, owner)
        for leaf in leaves:
            dist = space.ring_distance(leaf, owner)
            if dist < best_dist:
                nearer, best_dist = leaf, dist
        return nearer

    def _closest_known(self, current: int, key: int) -> Optional[int]:
        """The member ``current`` knows (leaf or table entry) least by
        (digit mismatch depth, ring distance, key) toward ``key``, when it
        beats ``current`` itself; else ``None``.

        The keys sharing at least ``r`` digits with ``key`` form one
        interval around it, and so do those within any ring distance of
        it, so that minimum is one of ``key``'s two circular neighbours in
        the sorted known set: a bisect, not a scan.  The set is built on
        first use and dropped by :meth:`_routing_changed`.
        """
        known = self._known.get(current)
        if known is None:
            members = set(self._leaves[current]).union(self._table[current].members)
            known = self._known[current] = array("Q", sorted(members))
        if not known:
            return None
        i = bisect_right(known, key)
        rank = PastryOverlay._progress  # toward ``key`` itself, also under Tapestry
        best = min(
            rank(self, current, key, key),
            rank(self, known[i - 1], key, key),
            rank(self, known[i % len(known)], key, key),
        )[2]
        return None if best == current else best

    def neighbors_of(self, key: int) -> List[int]:
        """Leaf set plus routing-table entries, deduplicated."""
        if key not in self._table:
            raise KeyError(f"{key} is not a member")
        return sorted(set(self._leaves[key]) | set(self._table[key].members))

    # ------------------------------------------------------------------
    # Introspection used by tests
    # ------------------------------------------------------------------
    def leaf_set(self, key: int) -> List[int]:
        """The leaf set of member ``key``."""
        return list(self._leaves[key])

    def routing_table(self, key: int) -> Dict[Tuple[int, int], int]:
        """The (row, digit) → member routing table of ``key``."""
        base = self.space.digit_base
        return {divmod(slot, base): m for slot, m in self._table[key].items()}
