"""Construction helpers: build any named overlay from a spec string.

Experiments take an ``overlay="tornado"`` parameter; this module maps the
name to a configured instance so every harness supports all substrates
(§2.1: "The stationary layer can be any HS-P2P").
"""

from __future__ import annotations

from typing import Callable, Optional

from .base import Overlay, ProximityFn
from .can import CANOverlay
from .chord import ChordOverlay
from .keyspace import KeySpace
from .pastry import PastryOverlay
from .tapestry import TapestryOverlay
from .tornado import TornadoOverlay

__all__ = ["make_overlay", "OVERLAY_NAMES"]

OVERLAY_NAMES = ("chord", "pastry", "tornado", "tapestry", "can")


def overlay_name(name: str) -> str:
    """``name`` lower-cased, or ``ValueError`` unless it names an overlay."""
    lowered = name.lower()
    if lowered not in OVERLAY_NAMES:
        raise ValueError(f"unknown overlay {name!r}; expected one of {OVERLAY_NAMES}")
    return lowered


def make_overlay(
    name: str,
    space: KeySpace,
    *,
    proximity: Optional[ProximityFn] = None,
    capacity: Optional[Callable[[int], float]] = None,
    leaf_set_size: int = 8,
    successor_list_size: int = 4,
    can_dims: int = 2,
) -> Overlay:
    """Instantiate the overlay called ``name``.

    Parameters irrelevant to the chosen overlay are ignored (e.g. Chord
    takes no proximity callback — mobility-unaware substrates simply do not
    use it).
    """
    lowered = overlay_name(name)
    if lowered == "chord":
        return ChordOverlay(space, successor_list_size=successor_list_size)
    if lowered == "pastry":
        return PastryOverlay(space, leaf_set_size=leaf_set_size, proximity=proximity)
    if lowered == "tornado":
        return TornadoOverlay(
            space, leaf_set_size=leaf_set_size, proximity=proximity, capacity=capacity
        )
    if lowered == "tapestry":
        return TapestryOverlay(
            space, leaf_set_size=leaf_set_size, proximity=proximity
        )
    return CANOverlay(space, dims=can_dims)
