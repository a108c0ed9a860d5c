"""Abstract HS-P2P overlay contract.

The stationary layer "can be any HS-P2P, e.g., CAN, Chord, Pastry,
Tapestry, Tornado" (§2.1) — Bristle only relies on a small contract, which
this module pins down:

* every node keeps ``O(log N)`` state-pairs (:meth:`Overlay.neighbors_of`);
* a key is *owned* by the node whose key is closest to it
  (:meth:`Overlay.owner_of`);
* greedy key-space routing reaches the owner in ``O(log N)`` hops
  (:meth:`Overlay.route`).

Concrete implementations (:mod:`~repro.overlay.chord`,
:mod:`~repro.overlay.pastry`, :mod:`~repro.overlay.tornado`, ...) derive
routing state one way: :meth:`Overlay._build_all` builds every member's
state from the sorted member array at once, and ``add_node`` /
``remove_node`` repair only the members an event affects.  Tests assert
both equal the per-node definitions in ``tests/oracles/``.
"""

from __future__ import annotations

import abc
import dataclasses
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional

import numpy as np

from .. import sanitize as _sanitize
from .keyspace import MAX_OVERLAY_BITS, KeySpace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..sim.metrics import MetricsRegistry

__all__ = ["RouteResult", "Overlay", "ProximityFn", "RoutingError"]

#: Optional network-proximity callback ``(key_a, key_b) -> cost`` used by
#: proximity-aware overlays (Tornado, and the §3 optimisation) to choose
#: among key-wise equivalent neighbour candidates.
ProximityFn = Callable[[int, int], float]


class RoutingError(RuntimeError):
    """Raised when greedy routing cannot make progress (overlay corrupt)."""


@dataclasses.dataclass
class RouteResult:
    """Outcome of routing a message toward a key.

    Attributes
    ----------
    target:
        The key routed toward.
    hops:
        Node keys visited, source first, owner last.  A route that starts
        at the owner has ``hops == [source]``.
    success:
        Whether the route terminated at the key's owner.
    """

    target: int
    hops: List[int]
    success: bool

    @property
    def hop_count(self) -> int:
        """Number of overlay hops (edges) traversed."""
        return max(len(self.hops) - 1, 0)

    @property
    def source(self) -> int:
        return self.hops[0]

    @property
    def terminus(self) -> int:
        return self.hops[-1]


class Overlay(abc.ABC):
    """Base class for hash-structured overlays.

    Subclasses build routing state in :meth:`_build_all`, repair it in
    :meth:`_on_add` / :meth:`_on_remove` and pick the next hop in
    :meth:`_hop`; the shared :meth:`route` loop with
    its per-hop guards, membership bookkeeping and owner resolution live
    here.
    """

    #: Guard against routing loops; honest overlays of 2^20 nodes route in
    #: well under 100 hops.
    MAX_ROUTE_HOPS = 512

    #: Cap on the owner-resolution memo (cleared wholesale when full).
    #: Ownership is a pure function of the member set and lookups repeat
    #: targets (every node key is one); membership changes evict only the
    #: entries the change can actually divert (:meth:`_invalidate_owner_memo_add`
    #: / :meth:`_invalidate_owner_memo_remove`).
    OWNER_MEMO_MAX = 1 << 17

    def __init__(self, space: KeySpace, proximity: Optional[ProximityFn] = None) -> None:
        if space.bits > MAX_OVERLAY_BITS:
            raise ValueError(
                f"overlays hold keys as 64-bit words: key space of {space.bits} "
                f"bits exceeds the limit of {MAX_OVERLAY_BITS}"
            )
        self.space = space
        self.proximity = proximity
        # Membership is a sorted uint64 array held in an amortised
        # capacity-doubling buffer so per-event add/remove is a memmove of
        # the tail, not a fresh O(N) allocation (np.insert/np.delete).
        self._key_buf: np.ndarray = np.empty(0, dtype=np.uint64)
        self._key_count: int = 0
        self._member_set: set = set()
        self._owner_memo: Dict[int, int] = {}
        #: reverse index owner -> memoised targets, enabling targeted
        #: eviction of exactly the entries a membership change can divert.
        self._memo_owners: Dict[int, List[int]] = {}
        self._metrics: Optional["MetricsRegistry"] = None

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    @property
    def _keys(self) -> np.ndarray:
        """Sorted member keys (a view into the amortised buffer)."""
        return self._key_buf[: self._key_count]

    @property
    def keys(self) -> np.ndarray:
        """Sorted array of member keys."""
        return self._keys

    @property
    def num_nodes(self) -> int:
        return self._key_count

    def is_member(self, key: int) -> bool:
        """True when ``key`` is a current member."""
        return key in self._member_set

    def bind_metrics(self, metrics: Optional["MetricsRegistry"]) -> None:
        """Attach a metrics registry; churn repairs then record
        ``overlay.repairs`` / ``overlay.repaired_nodes`` counters there."""
        self._metrics = metrics

    def _record_repair(self, repaired_nodes: int) -> None:
        """Count one churn-repair event touching ``repaired_nodes`` members."""
        m = self._metrics
        if m is None:
            from ..sim.telemetry import active_telemetry

            tel = active_telemetry()
            if tel is None:
                return
            m = tel.metrics
        m.counter("overlay.repairs").inc()
        m.counter("overlay.repaired_nodes").inc(int(repaired_nodes))

    def build(self, keys: Iterable[int]) -> None:
        """Build the overlay over ``keys`` (replaces any prior state)."""
        key_list = sorted({self.space.validate(int(k)) for k in keys})
        if not key_list:
            raise ValueError("cannot build an overlay with no members")
        self._key_buf = np.asarray(key_list, dtype=np.uint64)
        self._key_count = len(key_list)
        self._member_set = set(key_list)
        self._owner_memo.clear()
        self._memo_owners.clear()
        self._reset_state()
        self._build_all(key_list)

    def _insert_key(self, key: int) -> int:
        """Insert ``key`` into the sorted buffer; return its index."""
        n = self._key_count
        if n == self._key_buf.size:
            grown = np.empty(max(16, 2 * self._key_buf.size), dtype=np.uint64)
            grown[:n] = self._key_buf[:n]
            self._key_buf = grown
        idx = int(np.searchsorted(self._key_buf[:n], np.uint64(key)))
        self._key_buf[idx + 1 : n + 1] = self._key_buf[idx:n]
        self._key_buf[idx] = np.uint64(key)
        self._key_count = n + 1
        return idx

    def _delete_key(self, key: int) -> int:
        """Delete ``key`` from the sorted buffer; return its old index."""
        n = self._key_count
        idx = int(np.searchsorted(self._key_buf[:n], np.uint64(key)))
        self._key_buf[idx : n - 1] = self._key_buf[idx + 1 : n]
        self._key_count = n - 1
        return idx

    def add_node(self, key: int) -> None:
        """Incrementally admit ``key`` and repair affected routing state."""
        key = self.space.validate(int(key))
        if key in self._member_set:
            raise ValueError(f"key {key} is already a member")
        self._member_set.add(key)
        # The key's index is resolved once and handed to every hook.
        idx = self._insert_key(key)
        self._invalidate_owner_memo_add(key, idx)
        self._on_add(key, idx)
        if _sanitize.ACTIVE:
            _sanitize.check_overlay_consistency(self, key)

    def remove_node(self, key: int) -> None:
        """Remove ``key`` and repair affected routing state."""
        if key not in self._member_set:
            raise KeyError(f"key {key} is not a member")
        if len(self._member_set) == 1:
            raise ValueError("cannot remove the last member")
        self._member_set.remove(key)
        idx = self._delete_key(key)
        self._invalidate_owner_memo_remove(key)
        self._on_remove(key, idx)
        if _sanitize.ACTIVE:
            _sanitize.check_overlay_consistency(self, key)

    # ------------------------------------------------------------------
    # Ownership and routing
    # ------------------------------------------------------------------
    def owner_of(self, key: int) -> int:
        """Member key responsible for ``key``.

        The paper's storage rule (§1): "store a data item with a hash key k
        in a peer node whose hash key is the closest to k."  Ownership is a
        pure function of the member set, so the answer is memoized here
        (membership changes evict exactly the entries they can divert,
        keeping the memo warm across churn); subclasses override
        :meth:`_compute_owner` with their storage rule instead of this.
        """
        cached = self._owner_memo.get(key)
        if cached is not None:
            return cached
        self.space.validate(key)
        if self._key_count == 0:
            raise RuntimeError("overlay has no members")
        owner = self._compute_owner(key)
        if len(self._owner_memo) >= self.OWNER_MEMO_MAX:
            self._owner_memo.clear()
            self._memo_owners.clear()
        self._owner_memo[key] = owner
        self._memo_owners.setdefault(owner, []).append(key)
        return owner

    def _evict_owner_group(self, owner: int) -> None:
        """Drop every memo entry currently resolving to ``owner``."""
        group = self._memo_owners.pop(owner, None)
        if not group:
            return
        memo = self._owner_memo
        for target in group:
            if memo.get(target) == owner:
                del memo[target]

    def _invalidate_owner_memo_add(self, key: int, idx: int) -> None:
        """Evict memo entries an admission of ``key`` can divert.

        Under the default ring-nearest storage rule a new member only steals
        keys from its two ring neighbours, so those two owner groups are the
        only stale entries (Chord's successor rule is covered too: the old
        owner of any diverted key is the new key's successor).  Overlays
        with a non-local :meth:`_compute_owner` (e.g. CAN's zones, Tapestry's
        surrogate descent) must override this alongside it.

        Called with the membership already updated (``key`` sits at
        ``keys[idx]``).
        """
        keys = self._keys
        n = int(keys.size)
        if n <= 1:
            self._owner_memo.clear()
            self._memo_owners.clear()
            return
        self._evict_owner_group(int(keys[idx - 1]))
        self._evict_owner_group(int(keys[(idx + 1) % n]))

    def _invalidate_owner_memo_remove(self, key: int) -> None:
        """Evict memo entries a departure of ``key`` can divert.

        Removing a member can only re-home the keys that member owned: for
        every storage rule in this package, an owner other than ``key``
        keeps winning over any subset of the membership that still contains
        it.  Evicting ``key``'s own group is therefore exact.
        """
        self._evict_owner_group(key)

    def _compute_owner(self, key: int) -> int:
        """The storage rule: ring-nearest by default; Chord uses successor,
        Tapestry the surrogate root, CAN the zone tessellation."""
        return self.space.nearest_key(self._keys, key)

    def progress_key(self, node: int, target: int):
        """Totally-ordered progress measure; strictly decreases per hop
        (see :meth:`_progress` for each overlay's measure)."""
        return self._progress(node, target, self.owner_of(target))

    def next_hop(self, current: int, target: int) -> Optional[int]:
        """The neighbour of ``current`` to forward toward ``target``.

        A member key whose :meth:`progress_key` toward ``target`` is
        strictly smaller than ``current``'s (or, in the prefix overlays'
        leaf-set delivery mode, one ring-closer to the owner); ``None``
        at the owner or when no such neighbour is known.  Raises
        ``KeyError`` when ``current`` is not a member.
        """
        owner = self.owner_of(target)
        if current == owner:
            return None
        return self._hop(current, target, owner)

    def route(self, source: int, target: int) -> RouteResult:
        """Greedily route from member ``source`` toward key ``target``.

        Returns the hop sequence ending at the owner of ``target``.  The
        owner is resolved once and handed to the overlay's hop kernel;
        every hop it proposes is checked here (member, unvisited, closer)
        and a violation raises :class:`RoutingError` / ``KeyError`` — it
        indicates a bug in the overlay's state, greedy routing on correct
        state always terminates at the owner.
        """
        if source not in self._member_set:
            raise ValueError(f"source {source} is not a member")
        self.space.validate(target)
        owner = self.owner_of(target)
        hops = [source]
        hop, progress = self._hop, self._progress
        ring_distance = self.space.ring_distance
        current = source
        current_pk = progress(source, target, owner)
        seen = {source}
        while current != owner:
            nxt = hop(current, target, owner)
            if nxt is None:
                # A dead end short of the owner (a gap in the routing
                # state): the route ends here, unsuccessfully.
                return RouteResult(target=target, hops=hops, success=False)
            if nxt in seen:
                raise RoutingError(
                    f"routing loop at node {nxt} while targeting {target}"
                )
            # A hop must make progress: either by the overlay's own measure
            # (prefix/clockwise) or by ring distance toward the owner (the
            # leaf-set delivery mode of prefix overlays).
            nxt_pk = progress(nxt, target, owner)
            if not nxt_pk < current_pk and not ring_distance(
                nxt, owner
            ) < ring_distance(current, owner):
                raise RoutingError(
                    f"non-monotone hop {current}->{nxt} targeting {target}"
                )
            hops.append(nxt)
            seen.add(nxt)
            current, current_pk = nxt, nxt_pk
            if len(hops) > self.MAX_ROUTE_HOPS:
                raise RoutingError(f"route exceeded {self.MAX_ROUTE_HOPS} hops")
        return RouteResult(target=target, hops=hops, success=True)

    # ------------------------------------------------------------------
    # Subclass interface
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _hop(self, current: int, target: int, owner: int) -> Optional[int]:
        """The hop kernel behind :meth:`next_hop` and :meth:`route`.

        Called with ``owner == owner_of(target)`` already resolved and
        ``current != owner``; must raise ``KeyError`` when ``current`` has
        no routing state.
        """

    @abc.abstractmethod
    def _progress(self, node: int, target: int, owner: int):
        """The measure behind :meth:`progress_key`, owner resolved."""

    @abc.abstractmethod
    def neighbors_of(self, key: int) -> List[int]:
        """All neighbour keys in ``key``'s routing state (deduplicated)."""

    @abc.abstractmethod
    def _reset_state(self) -> None:
        """Clear all per-node routing state (before an oracle build)."""

    @abc.abstractmethod
    def _build_all(self, members: List[int]) -> None:
        """Build routing state for every member at once from the sorted
        member array (``members``: the same keys as the member set's own
        ints, for row dicts to share)."""

    @abc.abstractmethod
    def _on_add(self, key: int, idx: int) -> None:
        """Repair the state of the members a join of ``key`` at
        ``keys[idx]`` affects, and report them via :meth:`_record_repair`."""

    @abc.abstractmethod
    def _on_remove(self, key: int, idx: int) -> None:
        """Likewise after ``key`` left position ``idx`` (now its
        successor's, or ``n``)."""

    def route_avoiding(
        self, source: int, target: int, avoid: "set[int]"
    ) -> RouteResult:
        """Greedy routing that detours around ``avoid``\\ ed members.

        §2.3.2's reliability argument: "a route towards its destination
        can be adaptive by maintaining multiple paths to the neighbors" —
        when the preferred next hop is down, any *other* neighbour that
        still makes progress is taken instead.  The walk is loop-guarded
        by a visited set and reports failure (rather than raising) when
        the failed set disconnects every progressing path.

        The owner itself being in ``avoid`` is unreachable by definition
        and returns ``success=False`` immediately.
        """
        if not self.is_member(source):
            raise ValueError(f"source {source} is not a member")
        if source in avoid:
            raise ValueError("source node is itself failed")
        self.space.validate(target)
        owner = self.owner_of(target)
        hops = [source]
        if owner in avoid:
            return RouteResult(target=target, hops=hops, success=False)
        current = source
        seen = {source}
        while current != owner:
            cur_pk = self.progress_key(current, target)
            best: Optional[int] = None
            best_pk = None
            for cand in self.neighbors_of(current):
                if cand in avoid or cand in seen:
                    continue
                if cand == owner:
                    best = cand
                    break
                pk = self.progress_key(cand, target)
                if pk < cur_pk and (best_pk is None or pk < best_pk):
                    best, best_pk = cand, pk
            if best is None:
                # No live progressing neighbour: allow a live sideways hop
                # toward the owner (ring metric) before giving up.
                cur_ring = self.space.ring_distance(current, owner)
                for cand in self.neighbors_of(current):
                    if cand in avoid or cand in seen:
                        continue
                    if self.space.ring_distance(cand, owner) < cur_ring:
                        best = cand
                        break
            if best is None:
                return RouteResult(target=target, hops=hops, success=False)
            hops.append(best)
            seen.add(best)
            current = best
            if len(hops) > self.MAX_ROUTE_HOPS:
                return RouteResult(target=target, hops=hops, success=False)
        return RouteResult(target=target, hops=hops, success=True)

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    def state_size_stats(self) -> Dict[str, float]:
        """Mean/max routing-state size across members (the §2.3.2 claim of
        ``O(log N)`` memory overhead per node)."""
        sizes = [len(self.neighbors_of(int(k))) for k in self._keys]
        arr = np.asarray(sizes, dtype=np.float64)
        return {
            "mean": float(arr.mean()),
            "max": float(arr.max()),
            "min": float(arr.min()),
        }
