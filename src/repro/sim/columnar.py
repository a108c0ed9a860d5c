"""Columnar (struct-of-arrays) state engine for the million-node scenarios.

The object model (:class:`repro.core.bristle.BristleNetwork` over
:class:`repro.core.location.LocationDirectory`) is the one engine every
figure and the public API run on.  This module is the array-only
counterpart for the keyspace-sharded scale scenarios, which never build
an overlay or a node object and process whole event batches with
vectorised kernels:

* :class:`ColumnarStore` — the location-record table as sorted parallel
  columns (key, address triple, lease times, replica holders) with a
  precomputed expiry ordering, so a TTL sweep slices off the expired
  prefix instead of checking every lease;
* :class:`ColumnarDirectory` — the §2.3.2 directory over that store for
  a static stationary membership column: batched publish, withdraw,
  lease sweep and bulk resolve.  On a ring-nearest overlay its
  ``store.snapshot_rows()`` are bit-identical to
  ``LocationDirectory.snapshot()`` for the same event sequence;
* placement kernels — :func:`ring_nearest` (vectorised
  ``KeySpace.nearest_key``) and :func:`expand_holders` (vectorised
  replica placement, exact replica order of
  ``repro.core.location.holders_near``);
* :func:`run_scale_shard` / :func:`run_traffic_shard` — one keyspace
  shard of the churn+lookup and Zipf traffic-mix scenarios.  Every
  per-key event stream is derived by hashing the key itself
  (:func:`mix64`), so any shard partition of the key population replays
  bit-identically to the serial run; the driver
  (``repro.experiments.ext_scaling``) fans shards out through
  ``sweep_map`` and merges snapshots by concatenation.

Kernels operate on whole columns; per-node Python loops over full
membership arrays are banned here by lint rule BRS009.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .. import sanitize as _sanitize
from ..core.ldt_forest import build_forest_columns, forest_depths, forest_from_columns
from .rng import derive_seed

__all__ = [
    "mix64",
    "ring_nearest",
    "replica_offsets",
    "expand_holders",
    "ColumnarStore",
    "ColumnarDirectory",
    "OWNED_COLUMNS",
    "ScaleShardParams",
    "ScaleShardResult",
    "TrafficMixParams",
    "run_scale_shard",
    "run_traffic_shard",
    "merge_shard_results",
    "snapshot_checksum",
]

#: Columnar kernels pack keys into uint64 columns; identifier rings wider
#: than 63 bits would overflow the ring-distance arithmetic.
MAX_COLUMNAR_BITS = 63

#: Every column attribute owned by this module's struct-of-arrays table
#: (:class:`ColumnarStore` rows).
#: The whole-program linter (BRS013, :mod:`repro.lint.wholeprogram`)
#: flags any store to one of these attributes on a columnar table
#: outside this kernel module: column invariants (sort order, expiry
#: ordering, holder fan-out) only hold when mutations go through the
#: batch API (``upsert``/``remove``/``expire``/``refresh``).
OWNED_COLUMNS = (
    "keys",
    "router",
    "port",
    "epoch",
    "published",
    "ttl",
    "expiry",
    "holders",
    "holder_count",
    # LDT forest columns (repro.core.ldt_forest — the other columnar
    # kernel module): level-synchronous build invariants only hold when
    # these are written by build_forest_columns/build_ldt_forest.
    "tree_id",
    "tree_offsets",
    "parent",
    "parent_row",
    "level",
    "assigned",
)

_U64 = np.uint64
_I64 = np.int64
_F64 = np.float64

# splitmix64 finalizer constants (same mixing as repro.sim.rng.derive_seed).
_MIX_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_MUL2 = np.uint64(0x94D049BB133111EB)
_MIX_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def mix64(values: np.ndarray, salt: int = 0) -> np.ndarray:
    """Vectorised splitmix64 finalizer over a uint64 column.

    Per-key randomness for the scale engine comes from hashing the key
    itself (plus a salt derived from the master seed), never from a
    sequential stream — that is what makes event streams independent of
    how the key population is sharded.
    """
    with np.errstate(over="ignore"):
        z = values.astype(_U64, copy=True)
        z += _U64(salt & 0xFFFFFFFFFFFFFFFF) + _MIX_GOLDEN
        z = (z ^ (z >> _U64(30))) * _MIX_MUL1
        z = (z ^ (z >> _U64(27))) * _MIX_MUL2
        return z ^ (z >> _U64(31))


def ring_nearest(
    sorted_keys: np.ndarray, targets: np.ndarray, bits: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorised ``KeySpace.nearest_key`` over a whole target column.

    Returns ``(owner_idx, owner_key)`` — for each target, the index and
    value of the member key with minimal ring distance (ties to the
    numerically smaller key, bit-identical to the scalar oracle).
    """
    if sorted_keys.size == 0:
        raise ValueError("empty key array")
    if bits > MAX_COLUMNAR_BITS:
        raise ValueError(f"columnar kernels support bits <= {MAX_COLUMNAR_BITS}")
    keys = sorted_keys.astype(_U64, copy=False)
    tgt = targets.astype(_U64, copy=False)
    n = keys.size
    size = _U64(1 << bits)
    idx = np.searchsorted(keys, tgt)
    ia = idx % n  # successor (wraps to 0 past the end)
    ib = (idx - 1) % n  # predecessor
    ka, kb = keys[ia], keys[ib]
    with np.errstate(over="ignore"):
        mask = size - _U64(1)
        da_fwd = (ka - tgt) & mask
        db_fwd = (kb - tgt) & mask
    da = np.minimum(da_fwd, size - da_fwd)
    db = np.minimum(db_fwd, size - db_fwd)
    take_b = (db < da) | ((db == da) & (kb < ka))
    owner_idx = np.where(take_b, ib, ia)
    return owner_idx.astype(_I64), keys[owner_idx]


def replica_offsets(count: int) -> np.ndarray:
    """The replica placement order around an owner: 0, +1, −1, +2, −2, …

    Matches the alternate right/left walk of
    ``repro.core.location.holders_near``; the first ``count`` offsets are
    always distinct modulo any membership size ``n >= count`` (their span
    is ``count − 1``), so no per-holder dedup is ever needed.
    """
    steps = np.arange(1, count, dtype=_I64)
    signed = np.where(steps % 2 == 1, (steps + 1) // 2, -(steps // 2))
    return np.concatenate([np.zeros(1, dtype=_I64), signed])


def expand_holders(
    sorted_keys: np.ndarray, owner_idx: np.ndarray, replication: int
) -> np.ndarray:
    """Vectorised replica expansion: holder matrix of shape ``(Q, count)``.

    Row ``q`` lists the holders for a record owned by the member at sorted
    index ``owner_idx[q]`` — the owner plus its ring neighbours in the
    alternate right/left order, ``min(replication, n)`` holders total,
    byte-identical (values and order) to the scalar oracle's walk.
    """
    keys = sorted_keys.astype(_U64, copy=False)
    n = keys.size
    count = min(replication, int(n))
    offs = replica_offsets(count)
    idx = (owner_idx.astype(_I64).reshape(-1, 1) + offs.reshape(1, -1)) % n
    return keys[idx]


def snapshot_checksum(rows: Sequence[tuple]) -> str:
    """SHA-256 over a canonical snapshot (the cross-run identity)."""
    h = hashlib.sha256()
    for row in rows:
        h.update(repr(row).encode())
    return h.hexdigest()


class ColumnarStore:
    """The location-record table as sorted parallel columns.

    One row per *key* (all replicas of a record share its lease and
    address, so the replica dimension folds into a fixed-width holder
    matrix).  Rows stay sorted by key; every mutation is a batch rebuild
    (O(K + B log B) for a B-row batch), and a stable expiry ordering is
    recomputed alongside so :meth:`expire` is a prefix slice.
    """

    def __init__(self, replication: int) -> None:
        if replication < 1:
            raise ValueError("replication must be >= 1")
        self.replication = replication
        self.keys = np.empty(0, dtype=_U64)
        self.router = np.empty(0, dtype=_I64)
        self.port = np.empty(0, dtype=_I64)
        self.epoch = np.empty(0, dtype=_I64)
        self.published = np.empty(0, dtype=_F64)
        self.ttl = np.empty(0, dtype=_F64)
        self.expiry = np.empty(0, dtype=_F64)
        self.holders = np.empty((0, replication), dtype=_U64)
        self.holder_count = np.empty(0, dtype=_I64)
        #: Stable argsort of ``expiry`` (ties resolve in key order), the
        #: sorted expiry column behind the one-pass TTL sweep.
        self._exp_order = np.empty(0, dtype=_I64)

    def __len__(self) -> int:
        return int(self.keys.size)

    # ------------------------------------------------------------------
    # Mutation (batch-first)
    # ------------------------------------------------------------------
    def _set(self, **cols: np.ndarray) -> None:
        for name, arr in cols.items():
            setattr(self, name, arr)
        self._exp_order = np.argsort(self.expiry, kind="stable").astype(_I64)
        if _sanitize.ACTIVE:
            _sanitize.check_columnar_store(self)

    def _select(self, mask: np.ndarray) -> Dict[str, np.ndarray]:
        return {
            "keys": self.keys[mask],
            "router": self.router[mask],
            "port": self.port[mask],
            "epoch": self.epoch[mask],
            "published": self.published[mask],
            "ttl": self.ttl[mask],
            "expiry": self.expiry[mask],
            "holders": self.holders[mask],
            "holder_count": self.holder_count[mask],
        }

    def upsert(
        self,
        keys: np.ndarray,
        router: np.ndarray,
        port: np.ndarray,
        epoch: np.ndarray,
        published: np.ndarray,
        ttl: np.ndarray,
        holders: np.ndarray,
        holder_count: np.ndarray,
    ) -> None:
        """Insert-or-replace a batch of rows (batch keys must be unique)."""
        keys = keys.astype(_U64, copy=False)
        if keys.size == 0:
            return
        if self.keys.size:
            keep = ~np.isin(self.keys, keys)
            base = self._select(keep)
        else:
            base = self._select(np.zeros(0, dtype=bool))
        new_expiry = published + ttl
        pad = self.replication - holders.shape[1]
        if pad > 0:
            holders = np.concatenate(
                [holders, np.zeros((holders.shape[0], pad), dtype=_U64)], axis=1
            )
        merged_keys = np.concatenate([base["keys"], keys])
        order = np.argsort(merged_keys, kind="stable")
        self._set(
            keys=merged_keys[order],
            router=np.concatenate([base["router"], router.astype(_I64)])[order],
            port=np.concatenate([base["port"], port.astype(_I64)])[order],
            epoch=np.concatenate([base["epoch"], epoch.astype(_I64)])[order],
            published=np.concatenate([base["published"], published.astype(_F64)])[order],
            ttl=np.concatenate([base["ttl"], ttl.astype(_F64)])[order],
            expiry=np.concatenate([base["expiry"], new_expiry.astype(_F64)])[order],
            holders=np.concatenate([base["holders"], holders.astype(_U64)])[order],
            holder_count=np.concatenate(
                [base["holder_count"], holder_count.astype(_I64)]
            )[order],
        )

    def remove(self, keys: np.ndarray) -> np.ndarray:
        """Drop rows for ``keys``; returns the removed keys' holder counts
        (zero-length when nothing matched)."""
        keys = keys.astype(_U64, copy=False)
        if not self.keys.size or not keys.size:
            return np.empty(0, dtype=_I64)
        hit = np.isin(self.keys, keys)
        counts = self.holder_count[hit]
        self._set(**self._select(~hit))
        return counts

    def expire(self, now: float) -> np.ndarray:
        """One-pass TTL sweep: remove every row with ``expiry < now``.

        The expired rows form a prefix of the precomputed expiry ordering,
        so the sweep costs O(expired) plus one ``searchsorted`` — never a
        scan of the live rows.  Returns the expired keys, ascending.
        """
        if not self.keys.size:
            return np.empty(0, dtype=_U64)
        order = self._exp_order
        cut = int(np.searchsorted(self.expiry[order], now, side="left"))
        if cut == 0:
            return np.empty(0, dtype=_U64)
        dead_rows = order[:cut]
        dead_keys = np.sort(self.keys[dead_rows])
        keep = np.ones(self.keys.size, dtype=bool)
        keep[dead_rows] = False
        self._set(**self._select(keep))
        return dead_keys

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def find(self, keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Row indices for ``keys``: ``(rows, found_mask)`` via one
        ``searchsorted`` over the full key column."""
        q = keys.astype(_U64, copy=False)
        if not self.keys.size:
            return np.zeros(q.size, dtype=_I64), np.zeros(q.size, dtype=bool)
        idx = np.searchsorted(self.keys, q)
        idx_c = np.minimum(idx, self.keys.size - 1)
        found = self.keys[idx_c] == q
        return idx_c.astype(_I64), found

    def resolve_many(
        self, keys: np.ndarray, now: float
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Bulk lookup: ``(rows, hit_mask)`` where a hit is a stored row
        whose lease is still fresh at ``now``."""
        rows, found = self.find(keys)
        fresh = np.zeros(found.shape, dtype=bool)
        fresh[found] = self.expiry[rows[found]] >= now
        return rows, found & fresh

    def snapshot_rows(self) -> List[tuple]:
        """Canonical per-replica rows, sorted by (key, holder) — the
        parity contract shared with ``LocationDirectory.snapshot``."""
        out: List[tuple] = []
        for i in range(len(self)):  # repro-lint: disable=BRS009 canonical export walks rows by design
            base = (
                int(self.router[i]),
                int(self.port[i]),
                int(self.epoch[i]),
                float(self.published[i]),
                float(self.ttl[i]),
            )
            key = int(self.keys[i])
            for h in sorted(
                int(h) for h in self.holders[i, : int(self.holder_count[i])]
            ):
                out.append((key, h) + base)
        return out


class ColumnarDirectory:
    """The §2.3.2 location directory over a static membership column.

    Owner resolution is the vectorised :func:`ring_nearest` kernel over
    ``stationary_keys`` — no overlay objects at all — and every operation
    takes and returns whole columns.  State evolution matches
    :class:`repro.core.location.LocationDirectory` on a ring-nearest
    overlay of the same members (``store.snapshot_rows()`` against its
    ``snapshot()``); the public :class:`BristleNetwork` API does not use
    this class, only the shard scenarios below do.
    """

    def __init__(
        self, space, *, stationary_keys: np.ndarray, replication: int = 3
    ) -> None:
        if space.bits > MAX_COLUMNAR_BITS:
            raise ValueError(
                f"ColumnarDirectory supports key_bits <= {MAX_COLUMNAR_BITS}"
            )
        self.space = space
        self._members = np.sort(stationary_keys.astype(_U64, copy=False))
        self.replication = replication
        self.store = ColumnarStore(replication)
        self.publish_count = 0
        self.batch_publish_count = 0
        self.resolve_count = 0

    def holders_matrix(self, keys: np.ndarray) -> Tuple[np.ndarray, int]:
        """Vectorised holder sets: ``(holders (Q, count), count)``."""
        owner_idx, _ = ring_nearest(self._members, keys, self.space.bits)
        mat = expand_holders(self._members, owner_idx, self.replication)
        return mat, mat.shape[1]

    def publish_batch(
        self,
        keys: np.ndarray,
        router: np.ndarray,
        port: np.ndarray,
        epoch,
        now: float,
        ttl,
    ) -> int:
        """Store ``keys[i] → (router[i], port[i], epoch)`` at every holder,
        leased from ``now`` for ``ttl`` (``epoch`` and ``ttl`` may be
        scalars or per-key columns; batch keys must be unique).  Returns
        the replicas written — one update message each."""
        b = int(keys.size)
        if not b:
            return 0
        mat, count = self.holders_matrix(keys)
        self.store.upsert(
            keys=keys,
            router=router,
            port=port,
            epoch=np.broadcast_to(np.asarray(epoch, dtype=_I64), (b,)),
            published=np.full(b, float(now), dtype=_F64),
            ttl=np.broadcast_to(np.asarray(ttl, dtype=_F64), (b,)),
            holders=mat,
            holder_count=np.full(b, count, dtype=_I64),
        )
        self.publish_count += b
        self.batch_publish_count += 1
        return b * count

    def resolve_array(
        self, keys: np.ndarray, now: float
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Bulk lookup resolution: one searchsorted over the full key
        column.  Returns ``(hit, router, port, epoch)`` columns; counts
        every query in ``resolve_count``."""
        self.resolve_count += int(keys.size)
        rows, hit = self.store.resolve_many(keys, now)
        live = rows[hit]

        def column(values: np.ndarray) -> np.ndarray:
            out = np.full(hit.size, -1, dtype=_I64)  # misses read -1
            out[hit] = values[live]
            return out

        s = self.store
        return hit, column(s.router), column(s.port), column(s.epoch)

    def withdraw_many(self, keys: np.ndarray) -> int:
        """Bulk withdrawal; returns total replicas removed."""
        counts = self.store.remove(keys)
        return int(counts.sum())

    def expire_leases(self, now: float) -> List[int]:
        """Drop every record whose lease lapsed before ``now`` — the
        sorted-expiry prefix sweep.  Returns the expired keys, ascending."""
        return [int(k) for k in self.store.expire(now)]


# ----------------------------------------------------------------------
# Keyspace-sharded million-node scenario
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class ScaleShardParams:
    """One keyspace shard of the churn+traffic scale scenario.

    The full population parameters travel with every shard: each worker
    regenerates the (deterministic) stationary membership and the shared
    lookup stream, then keeps only the mobile keys whose owner position
    falls inside its shard.  Because every per-key event stream is a pure
    function of ``mix64(key, seed)``, the union of any shard partition is
    bit-identical to the serial run.
    """

    num_stationary: int
    num_mobile: int
    lookups: int
    rounds: int
    shard: int
    shards: int
    seed: int
    key_bits: int = 32
    replication: int = 3
    base_ttl: float = 60.0
    round_dt: float = 25.0
    registry_size: int = 20


@dataclasses.dataclass
class ScaleShardResult:
    """Shard outcome: additive stats plus the shard's final store rows."""

    stats: Dict[str, int]
    rows: List[tuple]


def _draw_unique_keys(seed: int, name: str, count: int, bits: int) -> np.ndarray:
    """Sorted unique uint64 keys, deterministic in (seed, name)."""
    gen = np.random.default_rng(derive_seed(seed, name))
    size = 1 << bits
    keys = np.unique(gen.integers(0, size, size=count, dtype=_U64))
    while keys.size < count:
        extra = gen.integers(0, size, size=count - keys.size, dtype=_U64)
        keys = np.unique(np.concatenate([keys, extra]))
    return keys[:count]


def _shard_setup(
    p, tag: str
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, ColumnarDirectory]:
    """What both shard scenarios start from: the (deterministic, per-``tag``)
    stationary and mobile key draws, the shard of every mobile key, this
    shard's keys and an empty directory over the stationary membership.
    Returns ``(mobile, shard_of, keys, directory)``.
    """
    if not 0 <= p.shard < p.shards:
        raise ValueError("shard index out of range")
    from ..overlay.keyspace import KeySpace

    digit_bits = 4 if p.key_bits % 4 == 0 else 1
    space = KeySpace(bits=p.key_bits, digit_bits=digit_bits)
    stationary = _draw_unique_keys(
        p.seed, f"{tag}|stationary", p.num_stationary, p.key_bits
    )
    mobile = _draw_unique_keys(p.seed, f"{tag}|mobile", p.num_mobile, p.key_bits)

    # Keyspace sharding: a mobile key belongs to the shard owning its ring
    # position, a pure function of (key, membership) — shard-invariant.
    pos = np.searchsorted(stationary, mobile) % p.num_stationary  # ring wrap
    shard_of = (pos.astype(_I64) * p.shards) // p.num_stationary
    directory = ColumnarDirectory(
        space, stationary_keys=stationary, replication=p.replication
    )
    return mobile, shard_of, mobile[shard_of == p.shard], directory


def _publish_hashed(
    directory: ColumnarDirectory,
    stats: Dict[str, int],
    batch: np.ndarray,
    ttl: np.ndarray,
    addr_salt: int,
    epoch: int,
    now: float,
) -> None:
    """Republish ``batch`` at addresses hashed from the keys themselves
    (lease ``ttl`` per key) and account the update messages."""
    hb = mix64(batch, addr_salt)
    written = directory.publish_batch(
        batch,
        (hb & _U64(0xFFFF)).astype(_I64),
        ((hb >> _U64(16)) & _U64(0xFFFF)).astype(_I64),
        epoch,
        now,
        ttl,
    )
    stats["published"] += int(batch.size)
    stats["replica_messages"] += written


def _advertise_forest(
    stats: Dict[str, int],
    offsets: np.ndarray,
    member_avail: np.ndarray,
    root_avail: np.ndarray,
) -> None:
    """One advertisement wave: materialise the movers' Fig-4 trees as one
    columnar forest (:func:`repro.core.ldt_forest.build_forest_columns`)
    and account it — every member row receives the update exactly once."""
    unit = np.ones(root_avail.size, dtype=_F64)
    level, assigned, parent_row = build_forest_columns(
        offsets, member_avail, root_avail, unit
    )
    total = int(offsets[-1])
    stats["ldt_trees"] += int(root_avail.size)
    stats["ldt_messages"] += total
    stats["ldt_depth_sum"] += int(forest_depths(offsets, level).sum())
    stats["multicast_deliveries"] += total
    if _sanitize.ACTIVE:
        _sanitize.check_ldt_forest(
            forest_from_columns(
                offsets, member_avail, root_avail, unit,
                level, assigned, parent_row,
            )
        )


def run_scale_shard(p: ScaleShardParams) -> ScaleShardResult:
    """Run one keyspace shard of the scale scenario, fully vectorised.

    Per round: a one-pass TTL expiry sweep, a batched republish of every
    mobile key whose (key-hashed) schedule says it moves, a batched
    withdrawal of leaving keys, the Fig-4 advertisement trees of the
    movers materialised as one columnar forest, and this shard's slice of
    the global lookup stream resolved in one kernel call.
    """
    mobile, shard_of, keys, directory = _shard_setup(p, "scale")

    # Per-key event schedules, hashed from the keys themselves.
    h_move = mix64(keys, derive_seed(p.seed, "scale|moves"))
    h_attr = mix64(keys, derive_seed(p.seed, "scale|attrs"))
    move_mask = h_move  # bit r set → the key republishes in round r
    leaves = (h_attr % _U64(8)) == 0  # ~1/8 of keys leave mid-run
    leave_round = ((h_attr >> _U64(8)) % _U64(max(p.rounds, 1))).astype(_I64)
    ttl = p.base_ttl * (1.0 + (h_attr >> _U64(16)) % _U64(3)).astype(_F64) / 2.0
    addr_salt = derive_seed(p.seed, "scale|addr")
    caps_salt = derive_seed(p.seed, "scale|caps")

    # The global lookup stream (every shard derives the same one and keeps
    # its own targets, so any partition replays the serial stream).
    lgen = np.random.default_rng(derive_seed(p.seed, "scale|lookups"))
    target_idx = lgen.integers(0, p.num_mobile, size=p.lookups)
    lookup_round = (np.arange(p.lookups, dtype=_I64) * p.rounds) // max(p.lookups, 1)
    target_keys = mobile[target_idx]
    lk_mine = shard_of[target_idx] == p.shard

    stats = {
        "keys": int(keys.size),
        "published": 0,
        "expired": 0,
        "withdrawn": 0,
        "lookups": 0,
        "hits": 0,
        "replica_messages": 0,
        "ldt_trees": 0,
        "ldt_messages": 0,
        "ldt_depth_sum": 0,
        "multicast_deliveries": 0,
    }

    departed = np.zeros(keys.size, dtype=bool)
    _publish_hashed(directory, stats, keys, ttl, addr_salt, epoch=0, now=0.0)

    for r in range(p.rounds):
        now = (r + 1) * p.round_dt
        stats["expired"] += len(directory.expire_leases(now))

        leave_now = leaves & (leave_round == r) & ~departed
        if np.any(leave_now):
            stats["withdrawn"] += directory.withdraw_many(keys[leave_now])
            departed |= leave_now

        movers = (
            ((move_mask >> _U64(r % 64)) & _U64(1)).astype(bool) & ~departed
        )
        move_keys = keys[movers]
        _publish_hashed(
            directory, stats, move_keys, ttl[movers], addr_salt, epoch=r + 1, now=now
        )
        if move_keys.size:
            # Uniform registries: every member shares its root's capacity.
            caps = ((mix64(move_keys, caps_salt) % _U64(15)) + _U64(1)).astype(_F64)
            sizes = np.full(move_keys.size, p.registry_size, dtype=_I64)
            offsets = np.zeros(move_keys.size + 1, dtype=_I64)
            np.cumsum(sizes, out=offsets[1:])
            _advertise_forest(stats, offsets, np.repeat(caps, sizes), caps)

        in_round = lookup_round == r
        q = target_keys[lk_mine & in_round]
        if q.size:
            hit, _, _, _ = directory.resolve_array(q, now + p.round_dt / 2.0)
            stats["lookups"] += int(q.size)
            stats["hits"] += int(hit.sum())

    return ScaleShardResult(stats=stats, rows=directory.store.snapshot_rows())


@dataclasses.dataclass(frozen=True)
class TrafficMixParams:
    """One keyspace shard of the Zipf-skewed traffic-mix scenario.

    The heavy-traffic companion of :class:`ScaleShardParams`: key
    popularity follows a Zipf law (rank hashed from the key population,
    exponent ``zipf_s``), the *lookup* stream draws targets by popularity
    weight, and *advertisement* load skews the same way — a key's
    registry size shrinks with its popularity rank between
    ``max_registry`` (rank 0) and ``min_registry`` (the tail), and every
    mover's LDT is materialised through the columnar forest builder with
    per-member hashed capacities.  All randomness is a pure function of
    ``(key, seed)`` or a globally-replayed stream, so any shard partition
    merges bit-identically to the serial run.
    """

    num_stationary: int
    num_mobile: int
    lookups: int
    rounds: int
    shard: int
    shards: int
    seed: int
    key_bits: int = 32
    replication: int = 3
    base_ttl: float = 60.0
    round_dt: float = 25.0
    zipf_s: float = 1.1
    min_registry: int = 4
    max_registry: int = 64


def run_traffic_shard(p: TrafficMixParams) -> ScaleShardResult:
    """Run one keyspace shard of the Zipf traffic mix, fully vectorised.

    Per round: TTL expiry, batched republish of the movers, one columnar
    forest build over the movers' skew-sized registries (the multicast
    wave — every member row is one delivery), and this shard's slice of
    the popularity-weighted lookup stream.
    """
    mobile, shard_of, keys, directory = _shard_setup(p, "traffic")

    # Popularity: rank 0 is the hottest key.  The rank permutation is
    # hashed from the key population itself, so it is shard-invariant.
    rank = np.empty(p.num_mobile, dtype=_I64)
    rank[np.argsort(mix64(mobile, derive_seed(p.seed, "traffic|rank")), kind="stable")] = (
        np.arange(p.num_mobile, dtype=_I64)
    )
    # Advertisement skew: popular keys accumulate more interested nodes.
    registry_sizes = np.maximum(
        np.int64(p.min_registry),
        (p.max_registry / np.sqrt(rank + 1.0)).astype(_I64),
    )
    reg_sizes = registry_sizes[shard_of == p.shard]

    h_move = mix64(keys, derive_seed(p.seed, "traffic|moves"))
    h_attr = mix64(keys, derive_seed(p.seed, "traffic|attrs"))
    ttl = p.base_ttl * (1.0 + (h_attr >> _U64(16)) % _U64(3)).astype(_F64) / 2.0
    addr_salt = derive_seed(p.seed, "traffic|addr")

    # Lookup skew: the global stream draws targets Zipf(s) by rank.
    weights = (rank.astype(_F64) + 1.0) ** (-p.zipf_s)
    weights /= weights.sum()
    lgen = np.random.default_rng(derive_seed(p.seed, "traffic|lookups"))
    target_idx = lgen.choice(p.num_mobile, size=p.lookups, p=weights)
    lookup_round = (np.arange(p.lookups, dtype=_I64) * p.rounds) // max(p.lookups, 1)
    lk_mine = shard_of[target_idx] == p.shard

    stats = {
        "keys": int(keys.size),
        "published": 0,
        "expired": 0,
        "lookups": 0,
        "hits": 0,
        "hot_lookups": 0,
        "replica_messages": 0,
        "ldt_trees": 0,
        "ldt_messages": 0,
        "ldt_depth_sum": 0,
        "multicast_deliveries": 0,
    }
    # Hot-set accounting: lookups landing on the top 1% of ranks.
    hot_cut = max(p.num_mobile // 100, 1)

    def advertise(batch: np.ndarray, sz: np.ndarray) -> None:
        """The movers' LDTs: registry sizes ``sz``, member capacities
        hashed per (key, member slot)."""
        if not batch.size:
            return
        offsets = np.zeros(batch.size + 1, dtype=_I64)
        np.cumsum(sz, out=offsets[1:])
        base = mix64(batch, derive_seed(p.seed, "traffic|members"))
        with np.errstate(over="ignore"):
            member_slot = (
                np.repeat(base, sz)
                + np.arange(int(offsets[-1]), dtype=_U64)
                - np.repeat(offsets[:-1].astype(_U64), sz)
            )
        hm = mix64(member_slot, derive_seed(p.seed, "traffic|mcaps"))
        hr = mix64(batch, derive_seed(p.seed, "traffic|caps"))
        _advertise_forest(
            stats,
            offsets,
            ((hm % _U64(15)) + _U64(1)).astype(_F64),
            ((hr % _U64(15)) + _U64(1)).astype(_F64),
        )

    _publish_hashed(directory, stats, keys, ttl, addr_salt, epoch=0, now=0.0)
    advertise(keys, reg_sizes)

    for r in range(p.rounds):
        now = (r + 1) * p.round_dt
        stats["expired"] += len(directory.expire_leases(now))

        movers = ((h_move >> _U64(r % 64)) & _U64(1)).astype(bool)
        move_keys = keys[movers]
        _publish_hashed(
            directory, stats, move_keys, ttl[movers], addr_salt, epoch=r + 1, now=now
        )
        advertise(move_keys, reg_sizes[movers])

        in_round = lookup_round == r
        q_idx = target_idx[lk_mine & in_round]
        if q_idx.size:
            q = mobile[q_idx]
            hit, _, _, _ = directory.resolve_array(q, now + p.round_dt / 2.0)
            stats["lookups"] += int(q_idx.size)
            stats["hits"] += int(hit.sum())
            stats["hot_lookups"] += int((rank[q_idx] < hot_cut).sum())

    return ScaleShardResult(stats=stats, rows=directory.store.snapshot_rows())


def merge_shard_results(
    results: Sequence[ScaleShardResult],
) -> Tuple[Dict[str, int], List[tuple], str]:
    """Combine shard outcomes: summed stats, the merged (sorted) snapshot
    and its checksum.  Keys never cross shards, so concatenation plus one
    sort reproduces the serial run's snapshot exactly."""
    stats: Dict[str, int] = {}
    rows: List[tuple] = []
    for res in results:
        for k, v in res.stats.items():
            stats[k] = stats.get(k, 0) + v
        rows.extend(res.rows)
    rows.sort()
    return stats, rows, snapshot_checksum(rows)
