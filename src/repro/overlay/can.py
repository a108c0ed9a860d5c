"""CAN overlay (Ratnasamy et al., SIGCOMM 2001) — the d-dimensional
coordinate-space HS-P2P the paper contrasts throughout §2.3.2:

* "each node needs to maintain 2D neighbors" (constant state in N);
* lookups take O(D·N^(1/D)) hops — polynomial rather than logarithmic.

A node's key maps to a point in a ``d``-dimensional torus by bit
de-interleaving; the space is tessellated into axis-aligned boxes built
as a k-d trie over the member points (cells split cyclically by
dimension until each holds one member — the deterministic equivalent of
CAN's split-on-join).  A trie half that ends up empty is merged into the
zone of one member of the occupied half, so every node owns a *union of
boxes* and the tessellation always covers the whole torus.  A key is
owned by the node whose zone contains its point; routing greedily
forwards across zone faces toward the target point.

Bristle can run either layer over CAN; the hop-scaling bench shows why
the paper's log-N overlays are preferred.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Set, Tuple

from .base import Overlay, RoutingError
from .keyspace import KeySpace

__all__ = ["CANOverlay", "Zone"]


@dataclasses.dataclass(frozen=True)
class Zone:
    """An axis-aligned box in the coordinate torus.

    ``start[i]`` / ``size[i]`` describe the half-open interval
    ``[start[i], start[i] + size[i])`` on axis ``i``; boxes are
    trie-aligned and never wrap.
    """

    start: Tuple[int, ...]
    size: Tuple[int, ...]

    def contains(self, point: Tuple[int, ...]) -> bool:
        """True when ``point`` lies inside the box."""
        return all(
            s <= c < s + sz for c, s, sz in zip(point, self.start, self.size)
        )

    def axis_distance(self, axis: int, coord: int, axis_extent: int) -> int:
        """Torus distance from ``coord`` to this box along one axis."""
        lo = self.start[axis]
        hi = lo + self.size[axis] - 1
        if lo <= coord <= hi:
            return 0
        d_lo = min((lo - coord) % axis_extent, (coord - lo) % axis_extent)
        d_hi = min((hi - coord) % axis_extent, (coord - hi) % axis_extent)
        return min(d_lo, d_hi)

    def distance_to_point(self, point: Tuple[int, ...], axis_extent: int) -> int:
        """L1 torus distance from the box to ``point`` (0 when inside)."""
        return sum(
            self.axis_distance(axis, c, axis_extent) for axis, c in enumerate(point)
        )

    def abuts(self, other: "Zone", axis_extent: int) -> bool:
        """True when the boxes share a (d−1)-dimensional face (torus)."""
        touching_axis = None
        for axis in range(len(self.start)):
            a_lo, a_sz = self.start[axis], self.size[axis]
            b_lo, b_sz = other.start[axis], other.size[axis]
            a_hi = a_lo + a_sz
            b_hi = b_lo + b_sz
            overlap = max(0, min(a_hi, b_hi) - max(a_lo, b_lo))
            if overlap > 0:
                continue
            touches = a_hi % axis_extent == b_lo or b_hi % axis_extent == a_lo
            if touches and touching_axis is None:
                touching_axis = axis
            else:
                return False
        return touching_axis is not None


class _ZoneNode:
    """One node of the k-d zone trie.

    Leaves (``lo is None``) hold a box of the tessellation: ``count == 1``
    for a member's home box, ``count == 0`` for an empty half annexed by
    ``owner``.  Internal nodes cache the split geometry plus subtree
    aggregates (member ``count``, minimum member key) so churn events can
    walk a single root-to-leaf path instead of re-tessellating.
    """

    __slots__ = ("zone", "depth", "axis", "mid", "lo", "hi", "owner", "count", "min_key")

    def __init__(self, zone: Zone, depth: int) -> None:
        self.zone = zone
        self.depth = depth
        self.axis = -1
        self.mid = -1
        self.lo: Optional["_ZoneNode"] = None
        self.hi: Optional["_ZoneNode"] = None
        self.owner: int = -1
        self.count: int = 0
        self.min_key: Optional[int] = None


class CANOverlay(Overlay):
    """CAN with a deterministic k-d-trie zone tessellation.

    Parameters
    ----------
    space:
        The key space; ``space.bits`` must be divisible by ``dims``.
    dims:
        Torus dimensionality ``d`` (the paper's D).
    """

    def __init__(self, space: KeySpace, dims: int = 2) -> None:
        super().__init__(space)
        if dims < 1:
            raise ValueError("dims must be >= 1")
        if space.bits % dims != 0:
            raise ValueError(f"dims ({dims}) must divide key bits ({space.bits})")
        self.dims = dims
        self.bits_per_axis = space.bits // dims
        self.axis_extent = 1 << self.bits_per_axis
        #: member key → the boxes forming its zone
        self._zone_boxes: Dict[int, List[Zone]] = {}
        self._neighbors: Dict[int, List[int]] = {}
        #: k-d trie over the member points; tessellation source of truth
        self._root: Optional[_ZoneNode] = None

    # ------------------------------------------------------------------
    # Coordinates
    # ------------------------------------------------------------------
    def point_of(self, key: int) -> Tuple[int, ...]:
        """De-interleave ``key``'s bits into d torus coordinates.

        Bit ``j`` of the key (MSB first) feeds axis ``j mod d``, matching
        the trie's cyclic splits — uniform keys give a balanced
        tessellation.
        """
        self.space.validate(key)
        coords = [0] * self.dims
        for j in range(self.space.bits):
            bit = (key >> (self.space.bits - 1 - j)) & 1
            axis = j % self.dims
            coords[axis] = (coords[axis] << 1) | bit
        return tuple(coords)

    # ------------------------------------------------------------------
    # Zone construction (k-d trie, empty halves merged)
    # ------------------------------------------------------------------
    def _reset_state(self) -> None:
        self._zone_boxes.clear()
        self._neighbors.clear()
        self._root = None
        if self._keys.size == 0:
            return
        members = [(int(k), self.point_of(int(k))) for k in self._keys]
        full = Zone(start=(0,) * self.dims, size=(self.axis_extent,) * self.dims)
        self._zone_boxes = {k: [] for k, _ in members}
        self._root = self._build_trie(full, members, depth=0)

    def _choose_axis(self, zone: Zone, depth: int) -> int:
        """The split axis at ``depth`` (cyclic, skipping exhausted axes)."""
        axis = depth % self.dims
        if zone.size[axis] == 1:
            for off in range(1, self.dims + 1):
                cand = (depth + off) % self.dims
                if zone.size[cand] > 1:
                    axis = cand
                    break
            else:  # pragma: no cover - distinct keys ⇒ distinct points
                raise RoutingError("cannot split a unit zone with >1 member")
        return axis

    def _make_leaf(self, zone: Zone, depth: int, owner: int, count: int) -> _ZoneNode:
        node = _ZoneNode(zone, depth)
        node.owner = owner
        node.count = count
        node.min_key = owner if count else None
        self._zone_boxes.setdefault(owner, []).append(zone)
        return node

    def _build_trie(
        self,
        zone: Zone,
        members: List[Tuple[int, Tuple[int, ...]]],
        depth: int,
    ) -> _ZoneNode:
        """Tessellate ``zone`` over ``members``: cells split cyclically by
        dimension until each holds one member; an empty half becomes a
        count-0 leaf annexed by the lowest-keyed occupant of the other
        half (deterministic; keeps the tessellation complete, mirroring
        CAN's zone-takeover on departure)."""
        if len(members) == 1:
            return self._make_leaf(zone, depth, members[0][0], count=1)
        axis = self._choose_axis(zone, depth)
        half = zone.size[axis] // 2
        mid = zone.start[axis] + half
        lo_zone = Zone(
            start=zone.start,
            size=tuple(half if i == axis else s for i, s in enumerate(zone.size)),
        )
        hi_zone = Zone(
            start=tuple(mid if i == axis else s for i, s in enumerate(zone.start)),
            size=lo_zone.size,
        )
        lo = [(k, p) for k, p in members if p[axis] < mid]
        hi = [(k, p) for k, p in members if p[axis] >= mid]
        node = _ZoneNode(zone, depth)
        node.axis = axis
        node.mid = mid
        if not lo:
            node.lo = self._make_leaf(lo_zone, depth + 1, min(hi)[0], count=0)
            node.hi = self._build_trie(hi_zone, hi, depth + 1)
        elif not hi:
            node.lo = self._build_trie(lo_zone, lo, depth + 1)
            node.hi = self._make_leaf(hi_zone, depth + 1, min(lo)[0], count=0)
        else:
            node.lo = self._build_trie(lo_zone, lo, depth + 1)
            node.hi = self._build_trie(hi_zone, hi, depth + 1)
        node.count = len(members)
        node.min_key = min(k for k, _ in members)
        return node

    # ------------------------------------------------------------------
    # Zone-face adjacency: one trie-neighbourhood query builds and repairs it
    # ------------------------------------------------------------------
    def _abutting_owners(self, key: int) -> Set[int]:
        """Owners of the boxes sharing a face with ``key``'s zone.

        One trie descent per box of the zone.  A node is skipped unless its
        box overlaps or touches (on the torus) the query box on every axis
        — no box inside it can do better — and a leaf is kept when it
        touches on exactly one axis and overlaps on the rest
        (:meth:`Zone.abuts`'s rule).
        """
        extent = self.axis_extent
        found: Set[int] = set()
        for box in self._zone_boxes[key]:
            q_lo = box.start
            q_hi = tuple(s + sz for s, sz in zip(box.start, box.size))
            stack = [self._root]
            while stack:
                node = stack.pop()
                touching = 0
                for n_lo, n_sz, lo, hi in zip(node.zone.start, node.zone.size, q_lo, q_hi):
                    n_hi = n_lo + n_sz
                    if n_lo < hi and lo < n_hi:
                        continue
                    if n_hi % extent != lo and hi % extent != n_lo:
                        break
                    touching += 1
                else:
                    if node.lo is not None:
                        stack += (node.lo, node.hi)
                    elif touching == 1 and node.owner != key:
                        found.add(node.owner)
        return found

    def _build_all(self, members: List[int]) -> None:
        for k in members:
            self._neighbors[k] = sorted(self._abutting_owners(k))

    # ------------------------------------------------------------------
    # Incremental churn: trie path updates instead of re-tessellation
    # ------------------------------------------------------------------
    def _box_add(self, zone: Zone, owner: int) -> None:
        self._zone_boxes.setdefault(owner, []).append(zone)

    def _box_remove(self, zone: Zone, owner: int) -> None:
        boxes = self._zone_boxes[owner]
        boxes.remove(zone)
        if not boxes:
            del self._zone_boxes[owner]

    def _box_move(self, zone: Zone, frm: int, to: int) -> None:
        if frm == to:
            return
        self._box_remove(zone, frm)
        self._box_add(zone, to)

    def _subtree_leaves(self, node: _ZoneNode) -> List[_ZoneNode]:
        if node.lo is None:
            return [node]
        return self._subtree_leaves(node.lo) + self._subtree_leaves(node.hi)

    def _trie_add(
        self,
        node: _ZoneNode,
        key: int,
        point: Tuple[int, ...],
        changed: Set[int],
    ) -> _ZoneNode:
        """Insert ``key`` below ``node``; returns the (possibly replaced)
        subtree and accumulates owners whose zone changed."""
        if node.lo is None:
            if node.count == 0:
                # A previously-annexed empty half gains its first occupant:
                # the box transfers whole, no split (matches the oracle,
                # which now recurses into a singleton half).
                changed.add(node.owner)
                changed.add(key)
                self._box_move(node.zone, node.owner, key)
                node.owner = key
                node.count = 1
                node.min_key = key
                return node
            # An occupied box splits: re-tessellate just this box over its
            # two points — identical to the oracle's recursion there.
            occupant = node.owner
            changed.add(occupant)
            changed.add(key)
            self._box_remove(node.zone, occupant)
            members = [(occupant, self.point_of(occupant)), (key, point)]
            return self._build_trie(node.zone, members, node.depth)
        into_lo = point[node.axis] < node.mid
        child = node.lo if into_lo else node.hi
        sibling = node.hi if into_lo else node.lo
        new_child = self._trie_add(child, key, point, changed)
        if into_lo:
            node.lo = new_child
        else:
            node.hi = new_child
        node.count += 1
        node.min_key = key if node.min_key is None or key < node.min_key else node.min_key
        # An empty-leaf sibling is annexed by the minimum key of this
        # (occupied) side; the newcomer may now be that minimum.
        if sibling.lo is None and sibling.count == 0:
            new_owner = new_child.min_key
            assert new_owner is not None
            if sibling.owner != new_owner:
                changed.add(sibling.owner)
                changed.add(new_owner)
                self._box_move(sibling.zone, sibling.owner, new_owner)
                sibling.owner = new_owner
        return node

    def _trie_remove(
        self,
        node: _ZoneNode,
        key: int,
        point: Tuple[int, ...],
        changed: Set[int],
    ) -> _ZoneNode:
        """Remove ``key`` below ``node`` (which must contain it)."""
        if node.lo is None:
            # The home leaf empties; the caller annexes the returned
            # count-0 leaf into the surviving sibling's zone.
            changed.add(key)
            self._box_remove(node.zone, key)
            node.owner = -1
            node.count = 0
            node.min_key = None
            return node
        if node.count - 1 == 1:
            # One survivor below: the whole subtree collapses back to a
            # single box, exactly as the oracle stops splitting at one
            # member.
            survivor = -1
            for leaf in self._subtree_leaves(node):
                if leaf.count:
                    changed.add(leaf.owner)
                    self._box_remove(leaf.zone, leaf.owner)
                    if leaf.owner != key:
                        survivor = leaf.owner
                else:
                    changed.add(leaf.owner)
                    self._box_remove(leaf.zone, leaf.owner)
            assert survivor != -1
            changed.add(survivor)
            return self._make_leaf(node.zone, node.depth, survivor, count=1)
        into_lo = point[node.axis] < node.mid
        child = node.lo if into_lo else node.hi
        sibling = node.hi if into_lo else node.lo
        new_child = self._trie_remove(child, key, point, changed)
        if new_child.count == 0:
            # The half emptied: annex it to the lowest-keyed occupant of
            # the sibling half (the oracle's empty-half rule).
            annex = sibling.min_key
            assert annex is not None
            new_child.owner = annex
            self._box_add(new_child.zone, annex)
            changed.add(annex)
        if into_lo:
            node.lo = new_child
        else:
            node.hi = new_child
        node.count -= 1
        lo_min = node.lo.min_key
        hi_min = node.hi.min_key
        node.min_key = (
            lo_min if hi_min is None else hi_min if lo_min is None else min(lo_min, hi_min)
        )
        # Empty-leaf siblings annexed by the departed key re-home to the
        # new minimum of the occupied side.
        if sibling.lo is None and sibling.count == 0 and sibling.owner == key:
            new_owner = new_child.min_key
            assert new_owner is not None
            changed.add(key)
            changed.add(new_owner)
            self._box_move(sibling.zone, key, new_owner)
            sibling.owner = new_owner
        return node

    def _repair_neighbors(self, changed: Set[int], removed: Optional[int] = None) -> None:
        """Recompute adjacency for owners whose zones changed; adjacency
        between two untouched members cannot change."""
        if removed is not None:
            for m in self._neighbors.pop(removed, []):
                lst = self._neighbors.get(m)
                if lst is not None and removed in lst:
                    lst.remove(removed)
        for c in sorted(k for k in changed if k in self._zone_boxes):
            new = self._abutting_owners(c)
            old = set(self._neighbors.get(c, ()))
            self._neighbors[c] = sorted(new)
            for dropped in old - new:
                lst = self._neighbors.get(dropped)
                if lst is not None and c in lst:
                    lst.remove(c)
            for gained in new - old:
                lst = self._neighbors.get(gained)
                if lst is not None and c not in lst:
                    lst.append(c)
                    lst.sort()

    def _on_add(self, key: int, idx: int) -> None:
        assert self._root is not None
        point = self.point_of(key)
        changed: Set[int] = set()
        self._root = self._trie_add(self._root, key, point, changed)
        # Owners that lost territory to the newcomer may hold stale memo
        # entries (the ring-neighbour rule of the base class does not apply
        # to zone ownership).
        for owner in changed:
            self._evict_owner_group(owner)
        self._repair_neighbors(changed)
        self._record_repair(len(changed))

    def _on_remove(self, key: int, idx: int) -> None:
        assert self._root is not None
        point = self.point_of(key)
        changed: Set[int] = set()
        self._root = self._trie_remove(self._root, key, point, changed)
        changed.discard(key)
        self._repair_neighbors(changed, removed=key)
        self._record_repair(len(changed))

    def _invalidate_owner_memo_add(self, key: int, idx: int) -> None:
        # Zone ownership is not ring-local; eviction happens in _on_add
        # once the set of owners losing territory is known.  (Departures
        # only re-home keys the departed member owned, so the base rule
        # stands for _invalidate_owner_memo_remove.)
        return

    # ------------------------------------------------------------------
    # Ownership & routing
    # ------------------------------------------------------------------
    def zone_of(self, key: int) -> List[Zone]:
        """The member's zone boxes (KeyError for non-members)."""
        return list(self._zone_boxes[key])

    def zone_distance(self, member: int, point: Tuple[int, ...]) -> int:
        """L1 torus distance from a member's zone to ``point``."""
        return min(
            z.distance_to_point(point, self.axis_extent)
            for z in self._zone_boxes[member]
        )

    def _compute_owner(self, key: int) -> int:
        """The member whose zone contains the key's point (trie descent:
        an empty leaf belongs to the member that annexed it)."""
        if self._root is None:  # pragma: no cover - build precedes queries
            raise RoutingError("overlay has no tessellation")
        point = self.point_of(key)
        node = self._root
        while node.lo is not None:
            node = node.lo if point[node.axis] < node.mid else node.hi
        return node.owner

    def _progress(self, node: int, target: int, owner: int):
        """(zone L1 distance to the target point, key)."""
        return (self.zone_distance(node, self.point_of(target)), node)

    def _hop(self, current: int, target: int, owner: int) -> Optional[int]:
        """The face neighbour whose zone is strictly closest to the target
        point (the smallest key among equals).

        Greedy never plateaus on an exact tessellation.  Let B be the box
        of ``current``'s zone nearest the target point, at distance d > 0,
        and p the point of B nearest it.  One step from p toward the
        target, along an axis where the target lies outside B, lands in a
        box Z that shares a face with B and lies at distance ≤ d − 1.  Z
        is not ``current``'s (B is its nearest box), so Z's owner is a
        neighbour strictly closer and the route loop needs no sideways moves.
        """
        if current not in self._zone_boxes:
            raise KeyError(f"{current} is not a member")
        point = self.point_of(target)
        best: Optional[int] = None
        best_d = self.zone_distance(current, point)
        for nbr in self._neighbors[current]:
            d = self.zone_distance(nbr, point)
            if d < best_d:
                best, best_d = nbr, d
        return best

    def neighbors_of(self, key: int) -> List[int]:
        """Zone-face neighbours of ``key``."""
        if key not in self._neighbors:
            raise KeyError(f"{key} is not a member")
        return list(self._neighbors[key])
