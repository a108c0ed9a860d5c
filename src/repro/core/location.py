"""Location management: the stationary-layer directory and registrations.

Two cooperating pieces implement §2.1/§2.3:

* :class:`LocationDirectory` — the "location information repository" the
  stationary layer forms.  A mobile node *publishes* its current address
  to the stationary node whose key is closest to its own (plus ``k − 1``
  replicas clustered around that key, per §2.3.2's availability rule);
  a *discovery* message routed to that key resolves the address.
* :class:`RegistrationManager` — the register/update bookkeeping of
  §2.3.1: which nodes are interested in which mobile node (``R(i)``),
  derived by default from overlay state replication ("X registers itself
  to nodes whose state-pairs are replicated in X").
"""

from __future__ import annotations

import dataclasses
import heapq
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from ..net.address import NetworkAddress
from ..overlay.base import Overlay
from ..overlay.keyspace import KeySpace
from ..sim.metrics import MetricsRegistry
from ..sim.nodestats import NodeLoadLedger
from .node import BristleNode, RegistryEntry

__all__ = [
    "ExpiryHeap",
    "LocationRecord",
    "LocationDirectory",
    "RegistrationManager",
    "BatchPublishResult",
    "holders_near",
    "shared_multicast_hops",
]


def shared_multicast_hops(
    overlay: Overlay, holders: Iterable[int], entry: Optional[int] = None
) -> int:
    """Overlay hops of one *shared* ring multicast visiting ``holders``.

    The per-holder baseline routes one full overlay traversal per distinct
    holder (O(holders · log N) hops).  The shared multicast enters the
    stationary layer once and the batched update then travels
    holder-to-holder around the ring: ``entry → first holder`` in ring
    order, then one short leg between each pair of consecutive distinct
    holders — holders cluster around record owners, so the legs are
    near-neighbour routes and the whole batch costs roughly one traversal
    plus O(holders) short legs.

    ``Overlay.route`` is side-effect-free (no metrics, no state), so this
    is pure message accounting; the directory contents are unaffected.
    Returns the total overlay hop count.
    """
    hs = sorted({int(h) for h in holders})
    if not hs:
        return 0
    start = int(entry) if entry is not None else hs[0]
    pos = int(np.searchsorted(np.asarray(hs, dtype=np.uint64), np.uint64(start)))
    ordered = [hs[(pos + j) % len(hs)] for j in range(len(hs))]
    hops = 0
    if ordered[0] != start:
        hops += overlay.route(start, ordered[0]).hop_count
    for a, b in zip(ordered, ordered[1:]):
        hops += overlay.route(a, b).hop_count
    return hops


def holders_near(keys: np.ndarray, owner: int, idx: int, replication: int) -> List[int]:
    """§2.3.2's replica walk: ``owner`` (at sorted index ``idx`` of the
    member array ``keys``) plus its ring neighbours, alternately right and
    left, ``replication`` holders total (bounded by the member count)."""
    n = int(keys.size)
    count = min(replication, n)
    holders = [owner]
    step = 1
    while len(holders) < count:
        right = int(keys[(idx + step) % n])
        if right not in holders:
            holders.append(right)
        if len(holders) >= count:
            break
        left = int(keys[(idx - step) % n])
        if left not in holders:
            holders.append(left)
        step += 1
    return holders


@dataclasses.dataclass
class LocationRecord:
    """One published binding: mobile key → address, with lease metadata."""

    key: int
    addr: NetworkAddress
    published_at: float
    ttl: float

    def fresh(self, now: float) -> bool:
        """Lease still valid at ``now``."""
        return now <= self.published_at + self.ttl


@dataclasses.dataclass
class BatchPublishResult:
    """Outcome of one :meth:`LocationDirectory.publish_many` call.

    Attributes
    ----------
    holders:
        mobile key → the stationary holders now storing its record (the
        same value :meth:`LocationDirectory.publish` returns per key).
    holder_batches:
        stationary holder → the batch keys it received.  Each entry is one
        *message*: the batched path sends a holder a single update carrying
        every co-hosted record it is responsible for, instead of one
        message per record.
    """

    holders: Dict[int, List[int]]
    holder_batches: Dict[int, List[int]]

    @property
    def num_records(self) -> int:
        """Records published in the batch (K)."""
        return len(self.holders)

    @property
    def distinct_holders(self) -> int:
        """Stationary nodes contacted — one batched message each."""
        return len(self.holder_batches)

    @property
    def message_count(self) -> int:
        """Update messages the batch costs (one per distinct holder),
        versus ``sum(len(h) for h in holders.values())`` for the per-key
        baseline."""
        return len(self.holder_batches)


class ExpiryHeap:
    """Min-expiry index of the location directory (lazy deletion).

    ``push`` records ``(expires_at, key)``; ``pop_expired`` pops every
    entry strictly below ``now``.  Re-published or withdrawn keys leave
    stale entries behind, which the directory rejects against its record
    table.  Expiry cost is O(expired · log K) instead of an O(total
    records) full scan.
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int]] = []

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, expires_at: float, key: int) -> None:
        """Record that ``key``'s current lease lapses at ``expires_at``."""
        heapq.heappush(self._heap, (float(expires_at), int(key)))

    def clear(self) -> None:
        """Drop every entry (callers re-push on a full re-placement)."""
        self._heap.clear()

    def pop_expired(self, now: float) -> List[Tuple[float, int]]:
        """Pop every entry with ``expires_at < now`` (stale ones included;
        the caller validates against its own record table)."""
        out: List[Tuple[float, int]] = []
        heap = self._heap
        while heap and heap[0][0] < now:
            out.append(heapq.heappop(heap))
        return out


class LocationDirectory:
    """Distributed location store over the stationary layer.

    The directory maps each *stationary holder* to the records it stores.
    Holder selection follows the HS-P2P placement rule: the record for key
    ``k`` lives on the stationary node owning ``k`` plus the next closest
    stationary keys, ``replication`` in total (§2.3.2: "a data item ...
    can simply be replicated to k nodes clustered with the hash keys
    closest to the one represented the data item").
    """

    def __init__(
        self,
        space: KeySpace,
        stationary_overlay: Overlay,
        replication: int = 3,
        ledger: Optional["NodeLoadLedger"] = None,
    ) -> None:
        if replication < 1:
            raise ValueError("replication must be >= 1")
        self.space = space
        self.overlay = stationary_overlay
        self.replication = replication
        #: Optional per-node load ledger; when set, every stored replica
        #: charges its holder one ``registrations`` unit (§2.3.1 update
        #: fan-in) so manifests can report who carries the directory.
        self.ledger = ledger
        # holder key -> {mobile key -> record}
        self._stores: Dict[int, Dict[int, LocationRecord]] = {}
        # mobile key -> holders that actually store its record right now.
        # This is the withdrawal index: ``holders_for`` recomputed later may
        # name a *different* holder set once the stationary membership has
        # churned, so removal must consult where records really live.
        self._holders_by_key: Dict[int, Tuple[int, ...]] = {}
        #: Min-expiry index: lease expiry pops the overdue prefix in O(expired · log K) instead of
        #: the O(total records) ``fresh(now)`` sweep it replaces.
        self._expiry_heap = ExpiryHeap()
        self.publish_count = 0
        self.batch_publish_count = 0
        self.resolve_count = 0

    # ------------------------------------------------------------------
    # Holder selection
    # ------------------------------------------------------------------
    def holders_for(self, key: int) -> List[int]:
        """The stationary nodes storing the record for ``key``.

        The owner plus its ring neighbours, ``replication`` holders total
        (bounded by the layer size).
        """
        owner = self.overlay.owner_of(key)
        idx = int(np.searchsorted(self.overlay.keys, np.uint64(owner)))
        return holders_near(self.overlay.keys, owner, idx, self.replication)

    def holders_for_many(self, keys: Iterable[int]) -> Dict[int, List[int]]:
        """Holder sets for many keys at once (batched counterpart of
        :meth:`holders_for`).

        Keys are grouped by responsible owner — the owner lookup rides the
        overlay's warm ``owner_of`` memo, the owner indices are resolved
        with a single vectorised ``searchsorted``, and the replica
        expansion runs once per *distinct* owner rather than once per key.
        Co-hosted keys with a shared owner therefore cost O(distinct
        owners), not O(K).
        """
        key_list = [int(k) for k in keys]
        owner_of = self.overlay.owner_of
        owners = {k: owner_of(k) for k in key_list}
        distinct = sorted(set(owners.values()))
        if not distinct:
            return {}
        idxs = np.searchsorted(self.overlay.keys, np.asarray(distinct, dtype=np.uint64))
        per_owner = {
            o: holders_near(self.overlay.keys, o, int(i), self.replication)
            for o, i in zip(distinct, idxs)
        }
        return {k: list(per_owner[owners[k]]) for k in key_list}

    # ------------------------------------------------------------------
    # Publish / resolve
    # ------------------------------------------------------------------
    def _place(self, key: int, record: LocationRecord, holders: List[int]) -> None:
        """Store ``record`` at ``holders`` and retire stale replicas.

        A republish after stationary churn may target a different holder
        set; replicas left behind on former holders are removed here so a
        record never outlives its key's current placement.
        """
        previous = self._holders_by_key.get(key)
        if previous is not None:
            current = set(holders)
            for h in previous:
                if h not in current:
                    self._stores.get(h, {}).pop(key, None)
        for h in holders:
            self._stores.setdefault(h, {})[key] = record
        self._holders_by_key[key] = tuple(holders)
        self._expiry_heap.push(record.published_at + record.ttl, key)
        if self.ledger is not None:
            self.ledger.add_many("registrations", holders)

    def publish(self, key: int, addr: NetworkAddress, now: float, ttl: float) -> List[int]:
        """Store ``key → addr`` at every holder; returns the holder keys."""
        record = LocationRecord(key=key, addr=addr, published_at=now, ttl=ttl)
        holders = self.holders_for(key)
        self._place(key, record, holders)
        self.publish_count += 1
        return holders

    def publish_many(
        self,
        updates: Mapping[int, NetworkAddress],
        now: float,
        ttl: float,
    ) -> BatchPublishResult:
        """Store ``key → addr`` for every entry of ``updates`` in one batch.

        The directory state afterwards is bit-identical to ``len(updates)``
        sequential :meth:`publish` calls at the same virtual time; the
        difference is message accounting — records sharing a stationary
        holder travel in one update message, so a K-record batch costs one
        message per *distinct* holder (see
        :attr:`BatchPublishResult.message_count`) instead of
        ``K × replication``.
        """
        items = sorted((int(k), addr) for k, addr in updates.items())
        holders_map = self.holders_for_many(k for k, _ in items)
        holder_batches: Dict[int, List[int]] = {}
        for key, addr in items:
            record = LocationRecord(key=key, addr=addr, published_at=now, ttl=ttl)
            holders = holders_map[key]
            self._place(key, record, holders)
            for h in holders:
                holder_batches.setdefault(h, []).append(key)
            self.publish_count += 1
        self.batch_publish_count += 1
        return BatchPublishResult(holders=holders_map, holder_batches=holder_batches)

    def resolve(self, key: int, now: float) -> Optional[NetworkAddress]:
        """Look up the freshest record for ``key`` among its holders."""
        self.resolve_count += 1
        best: Optional[LocationRecord] = None
        for h in self.holders_for(key):
            rec = self._stores.get(h, {}).get(key)
            if rec is not None and rec.fresh(now):
                if best is None or rec.published_at > best.published_at:
                    best = rec
        return best.addr if best is not None else None

    def resolve_at(self, holder: int, key: int, now: float) -> Optional[NetworkAddress]:
        """Look up ``key`` at one specific holder (used when the discovery
        route terminates at a replica rather than the primary owner)."""
        rec = self._stores.get(holder, {}).get(key)
        if rec is not None and rec.fresh(now):
            return rec.addr
        return None

    def withdraw(self, key: int) -> int:
        """Remove all records for ``key`` (the node left the system).

        Removal targets the holders that *actually store* the record (the
        index maintained by publish/rebalance), not ``holders_for(key)``
        recomputed at withdrawal time: stationary churn between publish and
        withdraw can re-home ownership, and recomputing would leave the
        record alive on its former holders forever.  Returns the number of
        replicas removed.
        """
        removed = 0
        holders = self._holders_by_key.pop(key, None)
        if holders is None:
            # Not published through this directory (or already withdrawn):
            # sweep every store so no replica can survive regardless.
            for recs in self._stores.values():
                if recs.pop(key, None) is not None:
                    removed += 1
            return removed
        for h in holders:
            if self._stores.get(h, {}).pop(key, None) is not None:
                removed += 1
        return removed

    def expire_leases(self, now: float) -> List[int]:
        """Drop every record whose lease lapsed before ``now``.

        Pops the overdue prefix of the min-expiry heap — O(expired · log K)
        — and validates each entry against the live record table (lazy
        deletion: a re-published or withdrawn key leaves a stale heap entry
        behind, recognised by a missing record or a different expiry).
        Returns the expired keys, ascending.
        """
        expired: List[int] = []
        for expiry, key in self._expiry_heap.pop_expired(now):
            holders = self._holders_by_key.get(key)
            if holders is None:
                continue  # withdrawn since the entry was pushed
            record = None
            for h in holders:
                record = self._stores.get(h, {}).get(key)
                if record is not None:
                    break
            if record is None or record.published_at + record.ttl != expiry:
                continue  # re-published since; a newer heap entry covers it
            for h in holders:
                self._stores.get(h, {}).pop(key, None)
            self._holders_by_key.pop(key, None)
            expired.append(key)
        return sorted(expired)

    def records_at(self, holder: int) -> Dict[int, LocationRecord]:
        """All records a holder currently stores (the Figure-3 notion of
        per-node *responsibility*)."""
        return dict(self._stores.get(holder, {}))

    def holder_load(self) -> Dict[int, int]:
        """record count per stationary holder — responsibility measured."""
        return {h: len(recs) for h, recs in self._stores.items()}

    def rebalance_after_membership_change(
        self, all_keys: Optional[Iterable[int]], now: float
    ) -> None:
        """Re-place every record on the holders implied by the current
        stationary membership (called after stationary churn).

        Only the freshest replica of each key survives, and only if

        * its lease is still valid at ``now`` — an expired record must not
          be resurrected with a new placement, and
        * its key appears in ``all_keys``, the keys still live in the
          system (``None`` skips this pruning when the caller cannot
          enumerate them) — records for departed keys are dropped rather
          than endlessly re-replicated.
        """
        live = None if all_keys is None else {int(k) for k in all_keys}
        existing: Dict[int, LocationRecord] = {}
        for recs in self._stores.values():
            for k, rec in recs.items():
                if live is not None and k not in live:
                    continue
                if not rec.fresh(now):
                    continue
                cur = existing.get(k)
                if cur is None or rec.published_at > cur.published_at:
                    existing[k] = rec
        self._stores.clear()
        self._holders_by_key.clear()
        # Every surviving record is re-placed below (re-pushing its expiry),
        # so the heap can drop its accumulated stale entries wholesale.
        self._expiry_heap.clear()
        holders_map = self.holders_for_many(sorted(existing))
        for k in sorted(existing):
            self._place(k, existing[k], holders_map[k])

    def snapshot(self) -> Tuple[tuple, ...]:
        """Canonical state: (key, holder, router, port, epoch, published,
        ttl) rows sorted by (key, holder) — the parity contract shared with
        ``ColumnarStore.snapshot_rows``."""
        rows = []
        for holder, recs in self._stores.items():
            for key, rec in recs.items():
                rows.append(
                    (
                        int(key),
                        int(holder),
                        int(rec.addr.router),
                        int(rec.addr.port),
                        int(rec.addr.epoch),
                        float(rec.published_at),
                        float(rec.ttl),
                    )
                )
        rows.sort()
        return tuple(rows)


class RegistrationManager:
    """Register / unregister bookkeeping (§2.3.1).

    The default interest relation mirrors the paper: a node X registers to
    the mobile nodes whose state-pairs X replicates — i.e. to its mobile
    overlay neighbours.  ``R(Y)`` is then the reverse-neighbour set of Y,
    of expected size O((M/N)·log N)·(N/M) ... = O(log N) per mobile node.
    """

    def __init__(
        self,
        nodes: Dict[int, BristleNode],
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self._nodes = nodes
        self._metrics = metrics
        self.registration_count = 0

    def register(self, registrant: int, target: int, now: float = 0.0) -> bool:
        """``registrant`` declares interest in ``target``'s movement.

        Idempotent: re-registering an existing interest (e.g. when
        ``register_from_overlay`` re-runs after churn repair) refreshes the
        entry's timestamp/capacity in place and is *not* counted as a new
        registration.  Returns True when the registration is new.
        """
        reg = self._nodes[registrant]
        is_new = self._nodes[target].register(
            RegistryEntry(registrant, reg.capacity, now)
        )
        reg.subscriptions.add(target)
        if not is_new:
            if self._metrics is not None:
                self._metrics.counter("op.register.refreshed").inc()
            return False
        self.registration_count += 1
        if self._metrics is not None:
            self._metrics.counter("op.register.count").inc()
        return True

    def unregister(self, registrant: int, target: int) -> None:
        """Withdraw ``registrant``'s interest in ``target``."""
        self._nodes[target].unregister(registrant)
        self._nodes[registrant].subscriptions.discard(target)
        if self._metrics is not None:
            self._metrics.counter("op.unregister.count").inc()

    def register_from_overlay(self, overlay: Overlay, *, mobile_only: bool = True) -> int:
        """Derive registrations from overlay state replication.

        For every member X and every neighbour Y in X's routing state, X
        registers to Y (when ``mobile_only``, only to mobile Y — §2.3.1:
        "X can register itself to those mobile nodes only").  Returns the
        number of *new* registrations issued — re-running after churn
        repair refreshes existing interests without double-counting them.
        """
        issued = 0
        for key in overlay.keys:
            x = int(key)
            for y in overlay.neighbors_of(x):
                tgt = self._nodes.get(y)
                if tgt is None:
                    continue
                if mobile_only and not tgt.mobile:
                    continue
                if self.register(x, y):
                    issued += 1
        return issued

    def registry_sizes(self, *, mobile_only: bool = True) -> List[int]:
        """|R(i)| for every (mobile) node — the §2.3.1 scaling claim."""
        out = []
        for node in self._nodes.values():
            if mobile_only and not node.mobile:
                continue
            out.append(len(node.registry))
        return out
