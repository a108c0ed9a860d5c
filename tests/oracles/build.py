"""Overlay routing state from its per-member definitions.

``reference_build(ov, keys)`` gives ``ov`` the membership ``keys`` and then
derives every member's state one member at a time, from the member array
alone, by the plain rules the vectorised build and the churn repairs in
``src/`` must reproduce slot for slot:

* prefix overlays (Pastry, Tornado, Tapestry): one scan over every other
  member in ascending key order — each lands in the slot of its first
  digit of difference and displaces the incumbent only when the overlay's
  slot comparator strictly prefers it — and a leaf set of the ``l/2``
  members on each side;
* Chord: fingers and successor list from their definitions in
  ``tests/oracles/routing.py``;
* CAN: zone-face neighbours by pairwise ``Zone.abuts`` over the boxes of
  the tessellation.

State is written through ``tests/oracles/rows.py``.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List

from repro.overlay import CANOverlay, ChordOverlay, PastryOverlay, TornadoOverlay
from repro.overlay.base import Overlay

from .routing import chord_fingers, chord_successors
from .rows import set_can_neighbors, set_chord_row, set_leaves, set_table

__all__ = ["reference_build"]


def slot_comparator(ov: PastryOverlay) -> Callable[[int, int, int], bool]:
    """``prefer(local, candidate, incumbent)``: Tornado's rule (proximity,
    then higher capacity, then smaller key); Pastry's and Tapestry's
    (proximity when given, else ring-closest with ties to the smaller key)."""
    space, proximity = ov.space, ov.proximity
    if isinstance(ov, TornadoOverlay):
        capacity = ov.capacity

        def tornado(local: int, candidate: int, incumbent: int) -> bool:
            if proximity is not None:
                dc, di = proximity(local, candidate), proximity(local, incumbent)
                if dc != di:
                    return dc < di
            cc, ci = capacity(candidate), capacity(incumbent)
            if cc != ci:
                return cc > ci
            return candidate < incumbent

        return tornado
    if proximity is not None:
        return lambda local, cand, inc: proximity(local, cand) < proximity(local, inc)
    return lambda local, cand, inc: space.is_closer(cand, inc, local)


def prefix_table(ov: PastryOverlay, key: int) -> Dict[int, int]:
    """``key``'s routing table as ``{row * 2**b + digit: member}``."""
    space, prefer = ov.space, slot_comparator(ov)
    table: Dict[int, int] = {}
    for other in ov.keys.tolist():
        if other == key:
            continue
        row = space.shared_prefix_length(key, other)
        slot = row * space.digit_base + space.digit(other, row)
        incumbent = table.get(slot)
        if incumbent is None or prefer(key, other, incumbent):
            table[slot] = other
    return table


def leaf_window(ov: PastryOverlay, key: int) -> List[int]:
    """The ``l/2`` members on each side of ``key``, ascending."""
    members = ov.keys.tolist()
    n, idx = len(members), members.index(key)
    w = min(ov.leaf_set_size // 2, n - 1)
    return sorted({members[(idx + j) % n] for j in range(-w, w + 1)} - {key})


def chord_offsets(ov: ChordOverlay, key: int) -> List[int]:
    """Clockwise offsets of ``key``'s fingers ∪ successor list, ascending."""
    mask = ov.space.size - 1
    neighbours = set(chord_fingers(ov, key)) | set(chord_successors(ov, key))
    return sorted((other - key) & mask for other in neighbours)


def can_neighbors(ov: CANOverlay, key: int) -> List[int]:
    """Members with a box sharing a face with one of ``key``'s boxes."""
    mine = ov.zone_of(key)
    return [
        other
        for other in ov.keys.tolist()
        if other != key
        and any(a.abuts(b, ov.axis_extent) for a in mine for b in ov.zone_of(other))
    ]


def reference_build(ov: Overlay, keys: Iterable[int]) -> Overlay:
    """``ov`` over ``keys`` with every member's state from the definitions
    above, written in ascending key order into emptied containers (the
    membership and CAN's tessellation come from ``build``)."""
    ov.build(keys)
    ov._reset_state()
    for key in ov.keys.tolist():
        if isinstance(ov, ChordOverlay):
            set_chord_row(ov, key, chord_offsets(ov, key))
        elif isinstance(ov, PastryOverlay):
            set_leaves(ov, key, leaf_window(ov, key))
            set_table(ov, key, prefix_table(ov, key))
        elif isinstance(ov, CANOverlay):
            set_can_neighbors(ov, key, can_neighbors(ov, key))
        else:
            raise TypeError(f"no reference build for {type(ov).__name__}")
    return ov
