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

from bisect import bisect_left, bisect_right
from typing import List, Optional

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
        ring, space = self.ring, self.space
        b, base = space.digit_bits, space.digit_base
        prefix = 0  # fixed digits so far, left-aligned value
        lo_idx, hi_idx = 0, self._key_count
        for level in range(space.num_digits):
            shift = space.bits - b * (level + 1)
            want = (key >> shift) & (base - 1)
            for bump in range(base):
                cand_prefix = (prefix << b) | ((want + bump) % base)
                lo = bisect_left(ring, cand_prefix << shift, lo_idx, hi_idx)
                hi = bisect_right(ring, ((cand_prefix + 1) << shift) - 1, lo_idx, hi_idx)
                if hi > lo:
                    prefix, lo_idx, hi_idx = cand_prefix, lo, hi
                    break
            else:  # pragma: no cover - membership non-empty ⇒ some digit populated
                raise RuntimeError("surrogate descent found no populated digit")
            if hi_idx - lo_idx == 1:
                break
        return ring[lo_idx]

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
        # if the table predates a membership change — fall back to the
        # known node closest to the owner, if it beats ``current``.
        return self._closest_known(current, owner)

    def surrogate_path(self, key: int) -> List[int]:
        """The per-level digits actually fixed while resolving ``key`` —
        exposed for tests (equals the owner's digit expansion)."""
        owner = self.owner_of(key)
        return list(self.space.digits(owner))
