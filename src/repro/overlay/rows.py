"""Routing state as packed rows of machine words.

Every member's routing state is an ``array('Q')`` — Chord's clockwise
offsets, a prefix overlay's leaf set — or, for a prefix overlay's
routing table, a :class:`SlotRow`: a bitmap of the filled slots plus the
``array('Q')`` of their members in slot order.  About a third of the
``rows · 2**b`` slots are filled at 32 bits and a fifth at 60, so the
filled entries alone are ≈ 0.5 KiB per member at any key width, where a
``{slot: member}`` dict of boxed integers was 4.4 KiB.
"""

from __future__ import annotations

from array import array
from typing import Iterator, Optional, Tuple

__all__ = ["SlotRow", "popcount"]

try:
    popcount = int.bit_count
except AttributeError:  # pragma: no cover - Python 3.9

    def popcount(value: int) -> int:
        return bin(value).count("1")


class SlotRow:
    """A sparse ``slot -> member`` map: entry ``slot`` sits at the number
    of filled slots below it, ``(bitmap & ((1 << slot) - 1)).bit_count()``."""

    __slots__ = ("bitmap", "members")

    def __init__(self, bitmap: int = 0, members: Optional[array] = None) -> None:
        self.bitmap = bitmap
        self.members = array("Q") if members is None else members

    def get(self, slot: int) -> Optional[int]:
        """The member in ``slot``, or ``None`` when it is empty."""
        bit = 1 << slot
        if self.bitmap & bit:
            return self.members[popcount(self.bitmap & (bit - 1))]
        return None

    def __setitem__(self, slot: int, member: int) -> None:
        bit = 1 << slot
        at = popcount(self.bitmap & (bit - 1))
        if self.bitmap & bit:
            self.members[at] = member
        else:
            self.members.insert(at, member)
            self.bitmap |= bit

    def __delitem__(self, slot: int) -> None:
        bit = 1 << slot
        if not self.bitmap & bit:
            raise KeyError(slot)
        del self.members[popcount(self.bitmap & (bit - 1))]
        self.bitmap ^= bit

    def items(self) -> Iterator[Tuple[int, int]]:
        """``(slot, member)`` pairs, slots ascending."""
        rest = self.bitmap
        for member in self.members:
            lowest = rest & -rest
            yield lowest.bit_length() - 1, member
            rest ^= lowest
