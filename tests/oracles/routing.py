"""Overlay routing before it had hop kernels (parent of issue 16).

The generic ``next_hop`` → ``progress_key`` → ``ring_distance`` bodies the
overlays routed with, as plain functions over an overlay's *public* views
(``owner_of``, ``leaf_set``, ``routing_table``) and the ``KeySpace``
methods — nothing here reads a row.  Chord's fingers and successor list
are recomputed from the member array by their definitions, so the oracle
also checks the merged rows they were folded into.

``reference_route`` is the route loop as it was: it asks ``next_hop`` at
every hop and re-resolves the owner each time.  ``can_plateau_route`` is
the walk CAN routed by before it joined that loop.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.overlay import CANOverlay, ChordOverlay, PastryOverlay, TapestryOverlay
from repro.overlay.base import Overlay, RoutingError

from .ring import successor

__all__ = [
    "can_plateau_route",
    "chord_fingers",
    "chord_successors",
    "reference_next_hop",
    "reference_progress_key",
    "reference_route",
    "route_outcome",
]


# ----------------------------------------------------------------------
# Chord
# ----------------------------------------------------------------------
def chord_fingers(ov: ChordOverlay, key: int) -> List[int]:
    """``successor(key + 2**i)`` for ascending ``i``; the member itself and
    consecutive repeats dropped."""
    fingers: List[int] = []
    last = None
    for i in range(ov.space.bits):
        f = successor(ov.keys, (key + (1 << i)) % ov.space.size)
        if f != key and f != last:
            fingers.append(f)
            last = f
    return fingers


def chord_successors(ov: ChordOverlay, key: int) -> List[int]:
    """The next ``successor_list_size`` members clockwise."""
    members = [int(k) for k in ov.keys]
    idx = members.index(key)
    n = len(members)
    return [
        members[(idx + j) % n]
        for j in range(1, min(ov.successor_list_size, n - 1) + 1)
    ]


def _chord_progress_key(ov: ChordOverlay, node: int, target: int):
    return (ov.space.clockwise_distance(node, ov.owner_of(target)), node)


def _chord_next_hop(ov: ChordOverlay, current: int, target: int) -> Optional[int]:
    if not ov.is_member(current):
        raise KeyError(f"{current} is not a member")
    owner = ov.owner_of(target)
    if current == owner:
        return None
    # Closest preceding finger: the neighbour with the largest clockwise
    # position still strictly before the owner (never overshoot).
    best: Optional[int] = None
    best_cw = -1
    my_cw_owner = ov.space.clockwise_distance(current, owner)
    for f in chord_fingers(ov, current) + chord_successors(ov, current):
        cw = ov.space.clockwise_distance(current, f)
        if 0 < cw <= my_cw_owner and cw > best_cw:
            best, best_cw = f, cw
    return best


# ----------------------------------------------------------------------
# Pastry / Tornado
# ----------------------------------------------------------------------
def _pastry_progress_key(ov: PastryOverlay, node: int, target: int):
    return (
        ov.space.num_digits - ov.space.shared_prefix_length(node, target),
        ov.space.ring_distance(node, target),
        node,
    )


def _pastry_next_hop(ov: PastryOverlay, current: int, target: int) -> Optional[int]:
    if not ov.is_member(current):
        raise KeyError(f"{current} is not a member")
    owner = ov.owner_of(target)
    if current == owner:
        return None
    cur_key = _pastry_progress_key(ov, current, target)

    # 1. Leaf set covers the target → jump straight to the best leaf.
    leaves = ov.leaf_set(current)
    best_leaf: Optional[int] = None
    for leaf in leaves:
        if best_leaf is None or ov.space.is_closer(leaf, best_leaf, target):
            best_leaf = leaf
    if best_leaf is not None and best_leaf == owner:
        return best_leaf

    # 2. Routing table: entry matching one more digit of the target.
    table: Dict[Tuple[int, int], int] = ov.routing_table(current)
    row = ov.space.shared_prefix_length(current, target)
    col = ov.space.digit(target, row)
    entry = table.get((row, col))
    if entry is not None and _pastry_progress_key(ov, entry, target) < cur_key:
        return entry

    # 3. No exact slot — any known node strictly closer.
    best: Optional[int] = None
    best_key = cur_key
    for cand in list(leaves) + list(table.values()):
        pk = _pastry_progress_key(ov, cand, target)
        if pk < best_key:
            best, best_key = cand, pk
    if best is not None:
        return best

    # 4. Leaf-set delivery mode: walk the ring toward the owner.
    cur_ring = ov.space.ring_distance(current, owner)
    for leaf in leaves:
        d = ov.space.ring_distance(leaf, owner)
        if d < cur_ring:
            best, cur_ring = leaf, d
    return best


# ----------------------------------------------------------------------
# Tapestry
# ----------------------------------------------------------------------
def _tapestry_progress_key(ov: TapestryOverlay, node: int, target: int):
    owner = ov.owner_of(target)
    return (
        ov.space.num_digits - ov.space.shared_prefix_length(node, owner),
        ov.space.ring_distance(node, owner),
        node,
    )


def _tapestry_next_hop(
    ov: TapestryOverlay, current: int, target: int
) -> Optional[int]:
    if not ov.is_member(current):
        raise KeyError(f"{current} is not a member")
    owner = ov.owner_of(target)
    if current == owner:
        return None
    table = ov.routing_table(current)
    row = ov.space.shared_prefix_length(current, owner)
    col = ov.space.digit(owner, row)
    entry = table.get((row, col))
    if entry is not None:
        return entry
    best: Optional[int] = None
    best_pk = _tapestry_progress_key(ov, current, target)
    for cand in ov.leaf_set(current) + list(table.values()):
        pk = _tapestry_progress_key(ov, cand, target)
        if pk < best_pk:
            best, best_pk = cand, pk
    return best


# ----------------------------------------------------------------------
# CAN
# ----------------------------------------------------------------------
def _can_progress_key(ov: CANOverlay, node: int, target: int):
    return (ov.zone_distance(node, ov.point_of(target)), node)


def _can_next_hop(ov: CANOverlay, current: int, target: int) -> Optional[int]:
    if not ov.is_member(current):
        raise KeyError(f"{current} is not a member")
    if current == ov.owner_of(target):
        return None
    # The face neighbour strictly closest to the target point; the first
    # of the ascending neighbour list among equals.
    point = ov.point_of(target)
    best: Optional[int] = None
    best_d = ov.zone_distance(current, point)
    for nbr in ov.neighbors_of(current):
        d = ov.zone_distance(nbr, point)
        if d < best_d:
            best, best_d = nbr, d
    return best


def can_plateau_route(ov: CANOverlay, source: int, target: int) -> Tuple[List[int], bool]:
    """``(hops, success)`` of greedy zone routing with plateau tolerance:
    sideways moves onto equal-distance neighbours, loop-guarded by a
    visited set, rather than declaring failure."""
    if not ov.is_member(source):
        raise ValueError(f"source {source} is not a member")
    ov.space.validate(target)
    owner = ov.owner_of(target)
    point = ov.point_of(target)
    hops = [source]
    current = source
    seen = {source}
    while current != owner:
        cur_d = ov.zone_distance(current, point)
        candidates = sorted(
            (ov.zone_distance(n, point), n)
            for n in ov.neighbors_of(current)
            if n not in seen and ov.zone_distance(n, point) <= cur_d
        )
        if not candidates:
            return hops, False
        current = candidates[0][1]
        hops.append(current)
        seen.add(current)
        if len(hops) > ov.MAX_ROUTE_HOPS:
            raise RoutingError(f"CAN route exceeded {ov.MAX_ROUTE_HOPS} hops")
    return hops, True


# ----------------------------------------------------------------------
# Dispatch and the route loop
# ----------------------------------------------------------------------
def _family(ov: Overlay) -> Tuple[Callable, Callable]:
    if isinstance(ov, CANOverlay):
        return _can_next_hop, _can_progress_key
    if isinstance(ov, ChordOverlay):
        return _chord_next_hop, _chord_progress_key
    if isinstance(ov, TapestryOverlay):
        return _tapestry_next_hop, _tapestry_progress_key
    if isinstance(ov, PastryOverlay):  # Tornado routes by Pastry's rule
        return _pastry_next_hop, _pastry_progress_key
    raise TypeError(f"no reference routing for {type(ov).__name__}")


def reference_next_hop(ov: Overlay, current: int, target: int) -> Optional[int]:
    return _family(ov)[0](ov, current, target)


def reference_progress_key(ov: Overlay, node: int, target: int):
    return _family(ov)[1](ov, node, target)


def reference_route(ov: Overlay, source: int, target: int) -> Tuple[List[int], bool]:
    """``(hops, success)`` of the generic route loop."""
    next_hop, progress_key = _family(ov)
    if not ov.is_member(source):
        raise ValueError(f"source {source} is not a member")
    ov.space.validate(target)
    owner = ov.owner_of(target)
    hops = [source]
    current = source
    seen = {source}
    while current != owner:
        nxt = next_hop(ov, current, target)
        if nxt is None:
            return hops, False
        if nxt in seen:
            raise RoutingError(f"routing loop at node {nxt} while targeting {target}")
        progressed = progress_key(ov, nxt, target) < progress_key(
            ov, current, target
        ) or ov.space.ring_distance(nxt, owner) < ov.space.ring_distance(
            current, owner
        )
        if not progressed:
            raise RoutingError(f"non-monotone hop {current}->{nxt} targeting {target}")
        hops.append(nxt)
        seen.add(nxt)
        current = nxt
        if len(hops) > ov.MAX_ROUTE_HOPS:
            raise RoutingError(f"route exceeded {ov.MAX_ROUTE_HOPS} hops")
    return hops, True


def route_outcome(route: Callable, ov: Overlay, source: int, target: int):
    """``(hops, success)`` of ``route(ov, source, target)`` — ``Overlay.route``
    or :func:`reference_route` — or the name of the error it raised, so a
    route over stale rows compares with the reference however it ends."""
    try:
        result = route(ov, source, target)
    except (KeyError, RoutingError) as exc:
        return type(exc).__name__
    return result if isinstance(result, tuple) else (result.hops, result.success)
