"""Tapestry overlay (Zhao, Kubiatowicz & Joseph, UCB/CSD-01-1141) — the
fifth and last substrate the paper's §2.1 names as a possible stationary
layer.

Tapestry shares Pastry's routing-table structure (one row per digit of
shared prefix, one slot per next digit) but resolves keys differently:
instead of a numeric leaf set, it uses **surrogate routing** — when no
member matches the next digit of the target, the digit is deterministically
"bumped" upward (mod the digit base) until a populated slot is found, and
the descent continues under the bumped prefix.  The unique node this
process converges to is the key's *surrogate root*, its owner.

Because the bumped digit sequence is a pure function of the target key and
the global membership, the surrogate root can be computed by prefix-range
descent over the sorted key array, and per-hop routing reduces to prefix
routing *toward the surrogate root*: every hop fixes one more digit, so
lookups take at most ``bits / digit_bits`` hops.
"""

from __future__ import annotations

from itertools import chain
from typing import List, Optional

import numpy as np

from . import prefix as _prefix
from .pastry import PastryOverlay

__all__ = ["TapestryOverlay"]


class TapestryOverlay(PastryOverlay):
    """Tapestry: Pastry's table geometry + surrogate-root ownership.

    Parameters are those of :class:`PastryOverlay`; the leaf set is kept
    purely as extra routing state (it plays no role in ownership).
    """

    # ------------------------------------------------------------------
    # Surrogate-root ownership
    # ------------------------------------------------------------------
    def _compute_owner(self, key: int) -> int:
        """The key's surrogate root (§ surrogate routing).

        Descends digit by digit; at each level the target's digit is used
        when some member continues under it, otherwise the digit is bumped
        upward (mod base) to the nearest populated value.
        """
        keys = self._keys
        bits = self.space.bits
        b = self.space.digit_bits
        base = self.space.digit_base
        prefix = 0  # fixed digits so far, left-aligned value
        lo_idx, hi_idx = 0, int(keys.size)
        for level in range(self.space.num_digits):
            shift = bits - b * (level + 1)
            want = (key >> shift) & (base - 1)
            for bump in range(base):
                digit = (want + bump) % base
                cand_prefix = (prefix << b) | digit
                window = keys[lo_idx:hi_idx]
                first = np.uint64(cand_prefix << shift)
                last = np.uint64(((cand_prefix + 1) << shift) - 1)
                lo = int(np.searchsorted(window, first)) + lo_idx
                hi = int(np.searchsorted(window, last, side="right")) + lo_idx
                if hi > lo:
                    prefix = cand_prefix
                    lo_idx, hi_idx = lo, hi
                    break
            else:  # pragma: no cover - membership non-empty ⇒ some digit populated
                raise RuntimeError("surrogate descent found no populated digit")
            if hi_idx - lo_idx == 1:
                return int(keys[lo_idx])
        return int(keys[lo_idx])

    # ------------------------------------------------------------------
    # Owner-memo invalidation under churn
    # ------------------------------------------------------------------
    def _invalidate_owner_memo_add(self, key: int, idx: int) -> None:
        """Evict exactly the memo entries a join diverts to ``key``.

        The surrogate descent for a target ``t`` follows its owner ``o``'s
        digit expansion; a new member ``k`` can only change the choice at
        level ``L = spl(k, o)`` (above it ``k`` sits in the already-chosen
        block, below it ``k`` left the path).  It wins there iff its digit
        needs fewer upward bumps from ``t``'s wanted digit than ``o``'s —
        and then the block ``k`` populates was previously empty, so the
        descent terminates at ``k`` itself.  Entries failing that test are
        untouched by the join.
        """
        memo = self._owner_memo
        if not memo:
            return
        targets = np.fromiter(memo.keys(), dtype=np.uint64, count=len(memo))
        owners = np.fromiter(memo.values(), dtype=np.uint64, count=len(memo))
        spl = _prefix.shared_prefix_lengths(self.space, owners, key)
        d_key = _prefix.digits_at(self.space, np.uint64(key), spl)
        d_own = _prefix.digits_at(self.space, owners, spl)
        d_tgt = _prefix.digits_at(self.space, targets, spl)
        base = np.uint64(self.space.digit_base)
        # uint64 wrap-around subtraction is exact mod base (base | 2**64)
        stolen = ((d_key - d_tgt) % base) < ((d_own - d_tgt) % base)
        diverted = targets[stolen].tolist()
        if not diverted:
            return
        owners_list = owners[stolen].tolist()
        for t, o in zip(diverted, owners_list):
            if memo.get(t) == o:
                del memo[t]
                group = self._memo_owners.get(o)
                if group is not None:
                    try:
                        group.remove(t)
                    except ValueError:  # pragma: no cover - index drift guard
                        pass

    # ------------------------------------------------------------------
    # Routing: prefix-walk toward the surrogate root
    # ------------------------------------------------------------------
    def _progress(self, node: int, target: int, owner: int):
        """(digit mismatch with the surrogate root, ring distance, key)."""
        return super()._progress(node, owner, owner)

    def _hop(self, current: int, target: int, owner: int) -> Optional[int]:
        """Prefix-walk one digit toward the surrogate root."""
        table = self._table.get(current)
        if table is None:
            raise KeyError(f"{current} is not a member")
        entry = table.get(self._slot_toward(current, owner))
        if entry is not None:
            return entry
        # The owner itself matches (row, col); the slot can only be empty
        # if the table predates a membership change — fall back to any
        # known node sharing a longer prefix with the owner.
        best: Optional[int] = None
        best_pk = self._progress(current, target, owner)
        for cand in chain(self._leaves[current], table.members):
            pk = self._progress(cand, target, owner)
            if pk < best_pk:
                best, best_pk = cand, pk
        return best

    def surrogate_path(self, key: int) -> List[int]:
        """The per-level digits actually fixed while resolving ``key`` —
        exposed for tests (equals the owner's digit expansion)."""
        owner = self.owner_of(key)
        return list(self.space.digits(owner))
