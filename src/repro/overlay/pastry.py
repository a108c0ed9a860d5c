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

A table is stored as ``{row * 2**b + digit: member}`` — routing asks it
for exactly one slot per hop, computed with two shifts and a mask.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from . import prefix as _prefix
from .base import Overlay, ProximityFn
from .keyspace import KeySpace

__all__ = ["PastryOverlay"]


class PastryOverlay(Overlay):
    """Pastry with oracle-built routing tables and leaf sets.

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
        #: member -> {slot: member}, slot = ``row * digit_base + digit``
        self._table: Dict[int, Dict[int, int]] = {}
        #: member -> its leaf set, ascending
        self._leaves: Dict[int, List[int]] = {}

    # ------------------------------------------------------------------
    # State construction
    # ------------------------------------------------------------------
    def _reset_state(self) -> None:
        self._table.clear()
        self._leaves.clear()

    def _build_node(self, key: int) -> None:
        idx = int(np.searchsorted(self._keys, np.uint64(key)))
        self._leaves[key] = self._compute_leaves(key, idx)
        self._table[key] = self._compute_table(key)

    def _compute_leaves(self, key: int, idx: int) -> List[int]:
        """Leaf set of the member ``key`` at ``keys[idx]``."""
        n = self._keys.size
        half = self.leaf_set_size // 2
        leaves: List[int] = []
        for j in range(1, min(half, n - 1) + 1):
            leaves.append(int(self._keys[(idx + j) % n]))  # clockwise side
            leaves.append(int(self._keys[(idx - j) % n]))  # counter-clockwise
        return sorted(set(leaves) - {key})

    def _compute_table(self, key: int) -> Dict[int, int]:
        """Routing table rows for ``key``.

        For every (row, digit) slot we scan the members sharing exactly the
        right prefix.  A single pass over the sorted member array suffices:
        each member lands in exactly one slot (its first digit of
        difference from ``key``).
        """
        table: Dict[int, int] = {}
        base = self.space.digit_base
        # candidates[slot] -> chosen member (resolve ties by proximity or key)
        for other in self._keys:
            o = int(other)
            if o == key:
                continue
            row = self.space.shared_prefix_length(key, o)
            slot = row * base + self.space.digit(o, row)
            cur = table.get(slot)
            if cur is None or self._slot_prefer(key, o, cur):
                table[slot] = o
        return table

    def _slot_prefer(self, local: int, candidate: int, incumbent: int) -> bool:
        """True when ``candidate`` should displace ``incumbent`` in a slot
        of ``local``'s table (proximity when available, else numerically
        closest with ties to the smaller key — Tornado overrides this with
        its capacity-aware rule)."""
        if self.proximity is not None:
            return self.proximity(local, candidate) < self.proximity(local, incumbent)
        return self.space.is_closer(candidate, incumbent, local)

    # ------------------------------------------------------------------
    # Bulk (vectorised) construction
    # ------------------------------------------------------------------
    def _vectorisable(self) -> bool:
        """The numpy paths require exact uint64 arithmetic and a slot rule
        that is a total order independent of pairwise proximity."""
        return _prefix.supports_vectorised(self.space) and self.proximity is None

    def _build_all(self) -> None:
        if not self._vectorisable():
            super()._build_all()
            return
        self._bulk_build_leaves()
        self._bulk_build_tables()

    def _bulk_build_leaves(self) -> None:
        keys = self._keys
        n = int(keys.size)
        if n == 1:
            self._leaves[int(keys[0])] = []
            return
        w = min(self.leaf_set_size // 2, n - 1)
        offs = np.concatenate([np.arange(1, w + 1), -np.arange(1, w + 1)])
        window = keys[(np.arange(n)[:, None] + offs[None, :]) % n]
        for key, row in zip(keys.tolist(), window.tolist()):
            self._leaves[key] = sorted(set(row) - {key})

    def _bulk_pair_winners(
        self,
        keys: np.ndarray,
        starts: np.ndarray,
        ends: np.ndarray,
        pair_node: np.ndarray,
        pair_block: np.ndarray,
    ) -> np.ndarray:
        """Slot winner for each (node, sibling block) pair.

        Ring-closest rule: a block is a value-contiguous key interval not
        containing the node, over which ring distance to the node has no
        interior minimum — the winner is always one of the two block
        endpoints, ties to the smaller key (= the low endpoint).
        """
        lo = keys[starts[pair_block]]
        hi = keys[ends[pair_block] - 1]
        x = keys[pair_node]
        # ring distance of each endpoint to the paired node
        mask = np.uint64(self.space.size - 1)
        d_lo = np.minimum((lo - x) & mask, (x - lo) & mask)
        d_hi = np.minimum((hi - x) & mask, (x - hi) & mask)
        return np.where(d_lo <= d_hi, lo, hi)

    def _bulk_build_tables(self) -> None:
        """All routing tables at once via the level-block decomposition.

        At level ``r`` the sorted members split into blocks sharing their
        first ``r + 1`` digits; node ``x``'s slot ``(r, d)`` draws from the
        sibling block with digit ``d`` under ``x``'s level-``r`` prefix.
        Enumerating (node, sibling-block) pairs per level and resolving each
        with :meth:`_bulk_pair_winners` yields every table entry without a
        per-node scan.
        """
        keys = self._keys
        n = int(keys.size)
        kl = keys.tolist()
        tables: Dict[int, Dict[int, int]] = {k: {} for k in kl}
        b = np.uint64(self.space.digit_bits)
        digit_mask = np.uint64(self.space.digit_base - 1)
        for row in range(self.space.num_digits):
            starts, ends, codes = _prefix.level_blocks(self.space, keys, row)
            nblocks = int(starts.size)
            if nblocks == 1:
                continue  # every member shares this row's digit: no entries
            parents = codes >> b
            slots = (codes & digit_mask).astype(np.int64) + (row << int(b))
            # contiguous runs of blocks under the same parent prefix
            pchange = np.flatnonzero(parents[1:] != parents[:-1]) + 1
            gstarts = np.concatenate([np.zeros(1, dtype=np.int64), pchange])
            gends = np.concatenate([pchange, np.asarray([nblocks], dtype=np.int64)])
            group_of_block = np.repeat(np.arange(gstarts.size), gends - gstarts)
            group_key_start = starts[gstarts]  # first member index per group
            group_key_count = ends[gends - 1] - starts[gstarts]
            # pair every member of a group with every block of the group …
            per_block = group_key_count[group_of_block]
            total = int(per_block.sum())
            if total == 0:
                continue
            pair_block = np.repeat(np.arange(nblocks), per_block)
            offsets = np.concatenate(
                [np.zeros(1, dtype=np.int64), np.cumsum(per_block)[:-1]]
            )
            pair_node = (
                np.repeat(group_key_start[group_of_block], per_block)
                + np.arange(total)
                - np.repeat(offsets, per_block)
            )
            # … except a member's own block (those land on deeper rows).
            own = (pair_node >= starts[pair_block]) & (pair_node < ends[pair_block])
            pair_node = pair_node[~own]
            pair_block = pair_block[~own]
            winners = self._bulk_pair_winners(keys, starts, ends, pair_node, pair_block)
            node_keys = keys[pair_node].tolist()
            slot_list = slots[pair_block].tolist()
            for nk, slot, win in zip(node_keys, slot_list, winners.tolist()):
                tables[nk][slot] = win
        self._table.update(tables)

    # ------------------------------------------------------------------
    # Targeted churn repair
    # ------------------------------------------------------------------
    def _repair_leaf_window(self, idx: int, exclude: int) -> Set[int]:
        """Recompute the leaf sets a membership change at sorted position
        ``idx`` can touch — the sliding windows overlapping that position —
        and return their members."""
        keys = self._keys
        n = int(keys.size)
        w = min(self.leaf_set_size // 2, n - 1)
        out: Set[int] = set()
        for pos in {(idx + j) % n for j in range(-w, w + 1)}:
            k = int(keys[pos])
            if k != exclude:
                self._leaves[k] = self._compute_leaves(k, pos)
                out.add(k)
        return out

    def _slots_facing(self, key: int) -> List[int]:
        """Per member, in member order: the slot of its table that ``key``
        competes for — ``(spl(member, key), digit(key, spl))``."""
        spl = _prefix.shared_prefix_lengths(self.space, self._keys, key)
        cols = _prefix.digits_at(self.space, np.uint64(key), spl)
        return (spl * self.space.digit_base + cols.astype(np.int64)).tolist()

    def _on_add(self, key: int, idx: int) -> None:
        if not self._vectorisable():
            super()._on_add(key, idx)
            return
        keys = self._keys
        # 1. The newcomer's own state, from the reference rule.
        self._leaves[key] = self._compute_leaves(key, idx)
        self._table[key] = self._compute_table(key)
        # 2. Leaf sets: only the windows around the insertion point move.
        repaired = self._repair_leaf_window(idx, key)
        # 3. Tables: the newcomer challenges exactly one slot per member —
        #    (spl(member, key), digit(key, spl)).  The slot rule is a total
        #    order, so winner-vs-challenger equals a fresh argmin.
        for member, slot in zip(keys.tolist(), self._slots_facing(key)):
            if member == key:
                continue
            table = self._table[member]
            cur = table.get(slot)
            if cur is None or self._slot_prefer(member, key, cur):
                table[slot] = key
                repaired.add(member)
        self._record_repair(len(repaired) + 1)

    def _repair_slot_winner(
        self, local: int, row: int, lo: int, hi: int, cache: Dict[int, int]
    ) -> int:
        """Best member of the block ``keys[lo:hi]`` for a slot of ``local``
        after a departure.  Ring rule: one of the two block endpoints
        (see :meth:`_bulk_pair_winners`); O(1) per affected member."""
        keys = self._keys
        lo_key = int(keys[lo])
        hi_key = int(keys[hi - 1])
        if lo_key == hi_key:
            return lo_key
        return lo_key if not self.space.is_closer(hi_key, lo_key, local) else hi_key

    def _on_remove(self, key: int, idx: int) -> None:
        if not self._vectorisable():
            super()._on_remove(key, idx)
            return
        self._leaves.pop(key, None)
        self._table.pop(key, None)
        keys = self._keys
        # 1. Leaf sets around the departure position.
        repaired = self._repair_leaf_window(idx, key)
        # 2. Tables: only slots that referenced the departed key change, and
        #    every member referencing it at row r draws replacements from the
        #    same block — the members sharing the key's first r+1 digits.
        block_range: Dict[int, Tuple[int, int]] = {}
        winner_cache: Dict[int, int] = {}
        for member, slot in zip(keys.tolist(), self._slots_facing(key)):
            table = self._table[member]
            if table.get(slot) != key:
                continue
            row = slot >> self.space.digit_bits
            rng = block_range.get(row)
            if rng is None:
                rng = _prefix.prefix_block_range(self.space, keys, key, row)
                block_range[row] = rng
            lo, hi = rng
            if hi <= lo:
                del table[slot]
            else:
                table[slot] = self._repair_slot_winner(
                    member, row, lo, hi, winner_cache
                )
            repaired.add(member)
        self._record_repair(len(repaired))

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _progress(self, node: int, target: int, owner: int):
        """(digit mismatch depth, ring distance, key) toward ``target``."""
        # Lexicographic: each Pastry step grows the shared prefix or
        # shrinks numeric distance.  The depth is the number of trailing
        # digits from the first mismatch on: ceil(bit_length(xor) / b).
        b = self.space.digit_bits
        return (
            ((node ^ target).bit_length() + b - 1) // b,
            self.space.ring_distance(node, target),
            node,
        )

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
           (prefix, ring distance, key), if one beats ``current``.
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
        entry = table.get(slot)
        if entry is not None:
            return entry

        space = self.space
        b, size = space.digit_bits, space.size
        mask, half, round_up = size - 1, size >> 1, b - 1
        best = current
        best_depth = space.num_digits - (slot >> b)
        best_dist = space.ring_distance(current, target)
        for cand in chain(leaves, table.values()):
            depth = ((cand ^ target).bit_length() + round_up) // b
            if depth > best_depth:
                continue
            dist = (cand - target) & mask
            if dist > half:
                dist = size - dist
            if depth == best_depth and (
                dist > best_dist or (dist == best_dist and cand >= best)
            ):
                continue
            best, best_depth, best_dist = cand, depth, dist
        if best != current:
            return best

        nearer: Optional[int] = None
        best_dist = space.ring_distance(current, owner)
        for leaf in leaves:
            dist = space.ring_distance(leaf, owner)
            if dist < best_dist:
                nearer, best_dist = leaf, dist
        return nearer

    def neighbors_of(self, key: int) -> List[int]:
        """Leaf set plus routing-table entries, deduplicated."""
        if key not in self._table:
            raise KeyError(f"{key} is not a member")
        return sorted(set(self._leaves[key]) | set(self._table[key].values()))

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
