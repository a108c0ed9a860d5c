"""Packed routing rows (``repro.overlay.rows``) as the plain lists and
dicts tests think in: the one place a test reads or overwrites an
overlay's private row containers, so their layout can change again.
Every setter ends with the overlay's ``_routing_changed()``, as its own
``build`` / ``add_node`` / ``remove_node`` do: a write drops the routing
memos derived from the rows it replaces."""

from __future__ import annotations

from array import array
from typing import Dict, Iterable, List

from repro.overlay import CANOverlay, ChordOverlay, PastryOverlay
from repro.overlay.rows import SlotRow

__all__ = [
    "chord_row",
    "set_chord_row",
    "slot_table",
    "set_table",
    "set_slot",
    "clear_slot",
    "set_leaves",
    "set_can_neighbors",
    "prefix_state",
]


def chord_row(ov: ChordOverlay, member: int) -> List[int]:
    """``member``'s clockwise offsets, ascending."""
    return list(ov._rows[member])


def set_chord_row(ov: ChordOverlay, member: int, offsets: Iterable[int]) -> None:
    """Overwrite ``member``'s row (corruption tests)."""
    ov._rows[member] = array("Q", offsets)
    ov._routing_changed()


def slot_table(ov: PastryOverlay, member: int) -> Dict[int, int]:
    """``member``'s routing table as ``{slot: entry}``."""
    return dict(ov._table[member].items())


def set_table(ov: PastryOverlay, member: int, table: Dict[int, int]) -> None:
    """Overwrite ``member``'s whole routing table with ``{slot: entry}``."""
    ov._table[member] = SlotRow(
        sum(1 << slot for slot in table), array("Q", [table[s] for s in sorted(table)])
    )
    ov._routing_changed()


def set_slot(ov: PastryOverlay, member: int, slot: int, entry: int) -> None:
    ov._table[member][slot] = entry
    ov._routing_changed()


def clear_slot(ov: PastryOverlay, member: int, slot: int) -> None:
    """Empty ``slot`` of ``member``'s table if it is filled."""
    if ov._table[member].get(slot) is not None:
        del ov._table[member][slot]
    ov._routing_changed()


def set_leaves(ov: PastryOverlay, member: int, leaves: Iterable[int]) -> None:
    """Overwrite ``member``'s leaf set (stale-state tests)."""
    ov._leaves[member] = array("Q", sorted(leaves))
    ov._routing_changed()


def set_can_neighbors(ov: CANOverlay, member: int, neighbors: Iterable[int]) -> None:
    """Overwrite ``member``'s zone-face neighbour list."""
    ov._neighbors[member] = sorted(neighbors)
    ov._routing_changed()


def prefix_state(ov: PastryOverlay) -> Dict[int, tuple]:
    """Every member's ``(routing table, leaf set)`` through the public
    views — what "the rows equal a fresh build's" compares."""
    return {k: (ov.routing_table(k), ov.leaf_set(k)) for k in ov.keys.tolist()}
