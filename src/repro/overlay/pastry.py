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
"""

from __future__ import annotations

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
        self._table: Dict[int, Dict[Tuple[int, int], int]] = {}
        self._leaves: Dict[int, List[int]] = {}

    # ------------------------------------------------------------------
    # State construction
    # ------------------------------------------------------------------
    def _reset_state(self) -> None:
        self._table.clear()
        self._leaves.clear()

    def _build_node(self, key: int) -> None:
        self._leaves[key] = self._compute_leaves(key)
        self._table[key] = self._compute_table(key)

    def _compute_leaves(self, key: int) -> List[int]:
        idx = int(np.searchsorted(self._keys, np.uint64(key)))
        n = self._keys.size
        half = self.leaf_set_size // 2
        leaves: List[int] = []
        for j in range(1, min(half, n - 1) + 1):
            leaves.append(int(self._keys[(idx + j) % n]))  # clockwise side
            leaves.append(int(self._keys[(idx - j) % n]))  # counter-clockwise
        return sorted(set(leaves) - {key})

    def _compute_table(self, key: int) -> Dict[Tuple[int, int], int]:
        """Routing table rows for ``key``.

        For every (row, digit) slot we scan the members sharing exactly the
        right prefix.  A single pass over the sorted member array suffices:
        each member lands in exactly one slot (its first digit of
        difference from ``key``).
        """
        table: Dict[Tuple[int, int], int] = {}
        # candidates[slot] -> chosen member (resolve ties by proximity or key)
        for other in self._keys:
            o = int(other)
            if o == key:
                continue
            row = self.space.shared_prefix_length(key, o)
            col = self.space.digit(o, row)
            slot = (row, col)
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
        tables: Dict[int, Dict[Tuple[int, int], int]] = {k: {} for k in kl}
        b = np.uint64(self.space.digit_bits)
        digit_mask = np.uint64(self.space.digit_base - 1)
        for row in range(self.space.num_digits):
            starts, ends, codes = _prefix.level_blocks(self.space, keys, row)
            nblocks = int(starts.size)
            if nblocks == 1:
                continue  # every member shares this row's digit: no entries
            parents = codes >> b
            cols = (codes & digit_mask).astype(np.int64)
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
            col_list = cols[pair_block].tolist()
            winner_list = winners.tolist()
            for nk, col, win in zip(node_keys, col_list, winner_list):
                tables[nk][(row, col)] = win
        self._table.update(tables)

    # ------------------------------------------------------------------
    # Targeted churn repair
    # ------------------------------------------------------------------
    def _leaf_repair_window(self, idx: int, exclude: int) -> List[int]:
        """Members whose leaf set a membership change at sorted position
        ``idx`` can touch: the sliding windows overlapping that position."""
        keys = self._keys
        n = int(keys.size)
        w = min(self.leaf_set_size // 2, n - 1)
        out: Set[int] = set()
        for j in range(-w, w + 1):
            k = int(keys[(idx + j) % n])
            if k != exclude:
                out.add(k)
        return sorted(out)

    def _on_add(self, key: int) -> None:
        if not self._vectorisable():
            super()._on_add(key)
            return
        keys = self._keys
        n = int(keys.size)
        idx = int(np.searchsorted(keys, np.uint64(key)))
        # 1. The newcomer's own state, from the reference rule.
        self._build_node(key)
        # 2. Leaf sets: only the windows around the insertion point move.
        touched = self._leaf_repair_window(idx, key)
        for member in touched:
            self._leaves[member] = self._compute_leaves(member)
        # 3. Tables: the newcomer challenges exactly one slot per member —
        #    (spl(member, key), digit(key, spl)).  The slot rule is a total
        #    order, so winner-vs-challenger equals a fresh argmin.
        spl = _prefix.shared_prefix_lengths(self.space, keys, key)
        cols = _prefix.digits_at(self.space, np.uint64(key), spl)
        repaired = set(touched)
        for member, row, col in zip(keys.tolist(), spl.tolist(), cols.tolist()):
            if member == key:
                continue
            slot = (int(row), int(col))
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

    def _on_remove(self, key: int) -> None:
        if not self._vectorisable():
            super()._on_remove(key)
            return
        self._leaves.pop(key, None)
        self._table.pop(key, None)
        keys = self._keys
        idx = int(np.searchsorted(keys, np.uint64(key)))
        idx = idx % int(keys.size) if keys.size else 0
        # 1. Leaf sets around the departure position.
        touched = self._leaf_repair_window(idx, key)
        for member in touched:
            self._leaves[member] = self._compute_leaves(member)
        # 2. Tables: only slots that referenced the departed key change, and
        #    every member referencing it at row r draws replacements from the
        #    same block — the members sharing the key's first r+1 digits.
        spl = _prefix.shared_prefix_lengths(self.space, keys, key)
        cols = _prefix.digits_at(self.space, np.uint64(key), spl)
        block_range: Dict[int, Tuple[int, int]] = {}
        winner_cache: Dict[int, int] = {}
        repaired = set(touched)
        for member, row, col in zip(keys.tolist(), spl.tolist(), cols.tolist()):
            slot = (int(row), int(col))
            table = self._table[member]
            if table.get(slot) != key:
                continue
            rng = block_range.get(int(row))
            if rng is None:
                rng = _prefix.prefix_block_range(self.space, keys, key, int(row))
                block_range[int(row)] = rng
            lo, hi = rng
            if hi <= lo:
                del table[slot]
            else:
                table[slot] = self._repair_slot_winner(
                    member, int(row), lo, hi, winner_cache
                )
            repaired.add(member)
        self._record_repair(len(repaired))

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def progress_key(self, node: int, target: int):
        """(digit mismatch depth, ring distance, key)."""
        # Lexicographic (digit mismatch depth, ring distance, key): each
        # Pastry step grows the shared prefix or shrinks numeric distance.
        return (
            self.space.num_digits - self.space.shared_prefix_length(node, target),
            self.space.ring_distance(node, target),
            node,
        )

    def next_hop(self, current: int, target: int) -> Optional[int]:
        """Leaf-set delivery, else the routing-table prefix entry."""
        if current not in self._table:
            raise KeyError(f"{current} is not a member")
        owner = self.owner_of(target)
        if current == owner:
            return None
        cur_key = self.progress_key(current, target)

        # 1. Leaf set covers the target → jump straight to the best leaf.
        leaves = self._leaves[current]
        best_leaf: Optional[int] = None
        for leaf in leaves:
            if best_leaf is None or self.space.is_closer(leaf, best_leaf, target):
                best_leaf = leaf
        if best_leaf is not None and best_leaf == owner:
            return best_leaf

        # 2. Routing table: entry matching one more digit of the target.
        row = self.space.shared_prefix_length(current, target)
        col = self.space.digit(target, row)
        entry = self._table[current].get((row, col))
        if entry is not None and self.progress_key(entry, target) < cur_key:
            return entry

        # 3. Rare case: no exact slot — any known node strictly closer.
        best: Optional[int] = None
        best_key = cur_key
        for cand in list(leaves) + list(self._table[current].values()):
            pk = self.progress_key(cand, target)
            if pk < best_key:
                best, best_key = cand, pk
        if best is not None:
            return best

        # 4. Leaf-set delivery mode: no prefix progress possible (the
        # numerically-nearest member shares a shorter prefix than we do —
        # e.g. the owner sits just across an aligned digit boundary).  Walk
        # the ring toward the owner through the leaf set.
        cur_ring = self.space.ring_distance(current, owner)
        for leaf in leaves:
            d = self.space.ring_distance(leaf, owner)
            if d < cur_ring:
                best, cur_ring = leaf, d
        return best

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
        return dict(self._table[key])
