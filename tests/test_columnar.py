"""Tests for the columnar state engine (``repro.sim.columnar``).

The object model (``LocationDirectory`` over a ring-nearest overlay) is
the oracle: the array-mode directory must reproduce its state evolution
bit-for-bit on randomized seeded interleavings — same snapshots, same
expiry lists, same lookup hits — and the placement kernels must match
their scalar counterparts.  The keyspace-sharded scale path must
additionally merge to results identical to a serial run for any shard
count.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.location import ExpiryHeap, LocationDirectory
from repro.experiments.ext_scaling import ColumnarScaleParams, run_columnar_scale
from repro.experiments.manifest import (
    ManifestError,
    build_manifest,
    peak_rss_kb,
    validate_manifest,
)
from repro.net.address import NetworkAddress
from repro.overlay import KeySpace, make_overlay
from repro.sim import RngStreams
from repro.sim.columnar import (
    ColumnarDirectory,
    ScaleShardParams,
    expand_holders,
    merge_shard_results,
    mix64,
    replica_offsets,
    ring_nearest,
    run_scale_shard,
    run_traffic_shard,
    TrafficMixParams,
)
from repro.sim.telemetry import Telemetry


@pytest.fixture
def space() -> KeySpace:
    return KeySpace(bits=32, digit_bits=4)


def addr(rng: np.random.Generator) -> NetworkAddress:
    return NetworkAddress(
        router=int(rng.integers(0, 1 << 16)),
        port=int(rng.integers(0, 1 << 16)),
        epoch=int(rng.integers(0, 8)),
    )


# ----------------------------------------------------------------------
# Kernels vs scalar oracles
# ----------------------------------------------------------------------
class TestKernels:
    def test_ring_nearest_matches_keyspace_oracle(self, space):
        gen = np.random.default_rng(11)
        members = np.unique(
            gen.integers(0, 1 << 32, size=400, dtype=np.uint64)
        )
        targets = gen.integers(0, 1 << 32, size=2000, dtype=np.uint64)
        _, owner_keys = ring_nearest(members, targets, bits=32)
        for t, got in zip(targets[:500], owner_keys[:500]):
            assert int(got) == int(space.nearest_key(members, int(t)))

    def test_expand_holders_matches_directory(self, space):
        gen = np.random.default_rng(12)
        member_list = sorted(
            int(k) for k in np.unique(gen.integers(0, 1 << 32, size=60, dtype=np.uint64))
        )
        ov = make_overlay("chord", space)
        ov.build(member_list)
        oracle = LocationDirectory(space, ov, replication=4)
        members = np.asarray(member_list, dtype=np.uint64)
        targets = gen.integers(0, 1 << 32, size=300, dtype=np.uint64)
        # The oracle's owner comes from the overlay's own geometry (Chord
        # successor here); the kernel's job is the replica expansion
        # around that owner, so feed it the same owner indices.
        owners = np.asarray([ov.owner_of(int(t)) for t in targets], dtype=np.uint64)
        owner_idx = np.searchsorted(members, owners)
        mat = expand_holders(members, owner_idx, replication=4)
        for q, t in enumerate(targets):
            assert [int(h) for h in mat[q]] == oracle.holders_for(int(t))

    def test_replica_offsets_distinct_mod_n(self):
        for count in (1, 2, 3, 5, 8):
            offs = replica_offsets(count)
            assert offs[0] == 0
            for n in range(count, count + 5):
                assert len({int(o) % n for o in offs}) == count

    def test_mix64_deterministic_and_salted(self):
        keys = np.arange(1000, dtype=np.uint64)
        a = mix64(keys, 5)
        assert np.array_equal(a, mix64(keys, 5))
        assert not np.array_equal(a, mix64(keys, 6))
        # The finalizer is a bijection — no collisions on distinct inputs.
        assert np.unique(a).size == keys.size


# ----------------------------------------------------------------------
# Expiry heap
# ----------------------------------------------------------------------
class TestExpiryHeap:
    def test_pops_overdue_prefix_in_order(self):
        h = ExpiryHeap()
        for t, k in [(30.0, 3), (10.0, 1), (20.0, 2), (40.0, 4)]:
            h.push(t, k)
        assert h.pop_expired(25.0) == [(10.0, 1), (20.0, 2)]
        assert len(h) == 2
        # Strictness: a lease expiring exactly at ``now`` is still fresh.
        assert h.pop_expired(30.0) == []
        assert h.pop_expired(30.1) == [(30.0, 3)]

    def test_clear(self):
        h = ExpiryHeap()
        h.push(1.0, 1)
        h.clear()
        assert h.pop_expired(100.0) == []

    def test_directory_lazy_deletion_on_republish(self, space):
        ov = make_overlay("chord", space)
        ov.build([100, 2000, 50000, 700000])
        d = LocationDirectory(space, ov, replication=2)
        a = NetworkAddress(router=1, port=2)
        d.publish(42, a, now=0.0, ttl=10.0)
        # Re-publish with a longer lease: the stale heap entry must not
        # expire the fresh record.
        d.publish(42, a, now=5.0, ttl=100.0)
        assert d.expire_leases(20.0) == []
        assert d.resolve(42, 20.0) is not None
        # Withdrawal leaves a stale entry behind too.
        d.publish(43, a, now=0.0, ttl=10.0)
        d.withdraw(43)
        assert d.expire_leases(50.0) == []


# ----------------------------------------------------------------------
# Directory parity: randomized interleavings against the object directory
# ----------------------------------------------------------------------
def _build_pair(space, seed: int, members: int = 48):
    """The object directory on a ring-nearest overlay (Pastry — the owner
    rule array mode implements) and the array directory over the same
    stationary keys."""
    rng = RngStreams(seed)
    keys = sorted(int(k) for k in space.random_keys(rng, "members", members))
    ov = make_overlay("pastry", space)
    ov.build(keys)
    oracle = LocationDirectory(space, ov, replication=3)
    columnar = ColumnarDirectory(
        space, stationary_keys=np.asarray(keys, dtype=np.uint64), replication=3
    )
    return oracle, columnar


def _publish_both(oracle, columnar, keys, gen, now, ttl) -> None:
    """One ``publish_batch`` of ``keys`` at random addresses, mirrored as
    per-key publishes on the oracle (``ttl`` scalar or per-key)."""
    router = gen.integers(0, 1 << 16, size=keys.size)
    port = gen.integers(0, 1 << 16, size=keys.size)
    epoch = gen.integers(0, 8, size=keys.size)
    written = columnar.publish_batch(keys, router, port, epoch, now, ttl)
    ttls = np.broadcast_to(ttl, keys.shape)
    holders = 0
    for i, k in enumerate(keys):
        a = NetworkAddress(router=int(router[i]), port=int(port[i]), epoch=int(epoch[i]))
        holders += len(oracle.publish(int(k), a, now=now, ttl=float(ttls[i])))
    assert written == holders


def _assert_resolves_alike(oracle, columnar, keys, now) -> None:
    hit, router, port, epoch = columnar.resolve_array(keys, now)
    for i, k in enumerate(keys):
        want = oracle.resolve(int(k), now)
        assert bool(hit[i]) == (want is not None)
        if want is not None:
            assert (int(router[i]), int(port[i]), int(epoch[i])) == (
                want.router,
                want.port,
                want.epoch,
            )


def test_array_directory_parity_randomized(space):
    oracle, columnar = _build_pair(space, seed=321)
    gen = np.random.default_rng(99)
    population = np.unique(gen.integers(0, 1 << 32, size=120, dtype=np.uint64))
    now = 0.0
    for _ in range(250):
        now += float(gen.uniform(0.0, 4.0))
        op = int(gen.integers(0, 4))
        batch = gen.choice(population, size=int(gen.integers(1, 12)), replace=False)
        if op == 0:
            ttl = gen.uniform(5.0, 40.0, size=batch.size if gen.random() < 0.5 else None)
            _publish_both(oracle, columnar, batch, gen, now, ttl)
        elif op == 1:
            removed = sum(oracle.withdraw(int(k)) for k in batch)
            assert columnar.withdraw_many(batch) == removed
        elif op == 2:
            assert columnar.expire_leases(now) == oracle.expire_leases(now)
        else:
            _assert_resolves_alike(oracle, columnar, population, now)
        assert tuple(columnar.store.snapshot_rows()) == oracle.snapshot()
    assert columnar.publish_count == oracle.publish_count
    assert columnar.resolve_count == oracle.resolve_count


def test_resolve_array_matches_scalar(space):
    oracle, columnar = _build_pair(space, seed=13)
    gen = np.random.default_rng(5)
    population = np.unique(gen.integers(0, 1 << 32, size=80, dtype=np.uint64))
    _publish_both(oracle, columnar, population[:50], gen, now=0.0, ttl=15.0)
    _assert_resolves_alike(oracle, columnar, population, 10.0)
    # Past the lease every stored record is a miss, exactly as the
    # unpublished keys are.
    assert not columnar.resolve_array(population, 15.5)[0].any()


# ----------------------------------------------------------------------
# Keyspace-sharded scale engine
# ----------------------------------------------------------------------
class TestShardedScale:
    PARAMS = dict(num_stationary=600, num_mobile=300, lookups=400, rounds=5, seed=29)

    def _run(self, shards: int):
        results = [
            run_scale_shard(
                ScaleShardParams(shard=s, shards=shards, **self.PARAMS)
            )
            for s in range(shards)
        ]
        return merge_shard_results(results)

    def test_sharded_bit_identical_to_serial(self):
        serial = self._run(1)
        for shards in (2, 4, 7):
            assert self._run(shards) == serial

    def test_shards_partition_population(self):
        stats, _, _ = self._run(3)
        assert stats["keys"] == self.PARAMS["num_mobile"]
        assert stats["lookups"] == self.PARAMS["lookups"]
        assert 0 < stats["hits"] <= stats["lookups"]
        assert stats["expired"] > 0 and stats["withdrawn"] > 0

    def test_experiment_table_shard_invariant(self):
        base = dict(num_stationary=600, num_mobile=300, lookups=400, rounds=5)
        rows = []
        for shards in (1, 3):
            t = run_columnar_scale(ColumnarScaleParams(shards=shards, **base))
            row = dict(t.rows[0])
            assert row.pop("shards") == shards
            rows.append(row)
        assert rows[0] == rows[1]

    def test_shard_index_validated(self):
        with pytest.raises(ValueError):
            run_scale_shard(ScaleShardParams(shard=4, shards=4, **self.PARAMS))


# ----------------------------------------------------------------------
# Zipf traffic mix on the columnar LDT forest
# ----------------------------------------------------------------------
class TestTrafficMix:
    PARAMS = dict(num_stationary=700, num_mobile=320, lookups=500, rounds=5, seed=31)

    def _run(self, shards: int):
        results = [
            run_traffic_shard(
                TrafficMixParams(shard=s, shards=shards, **self.PARAMS)
            )
            for s in range(shards)
        ]
        return merge_shard_results(results)

    def test_sharded_bit_identical_to_serial(self):
        serial = self._run(1)
        for shards in (2, 4, 7):
            assert self._run(shards) == serial

    def test_forest_stats_populated(self):
        stats, _, _ = self._run(3)
        assert stats["keys"] == self.PARAMS["num_mobile"]
        assert stats["ldt_trees"] > 0
        # One advertisement message == one multicast delivery per member.
        assert stats["multicast_deliveries"] == stats["ldt_messages"]
        assert stats["ldt_depth_sum"] >= stats["ldt_trees"]

    def test_zipf_skew_concentrates_lookups(self):
        stats, _, _ = self._run(1)
        assert stats["lookups"] == self.PARAMS["lookups"]
        # The top 1% of ranks draw far more than a uniform 1% share.
        assert stats["hot_lookups"] / stats["lookups"] > 0.10

    def test_experiment_table_jobs_invariant(self):
        from repro.experiments.ext_scaling import (
            TrafficMixScaleParams,
            run_traffic_mix,
        )
        from repro.experiments.parallel import SweepConfig, sweep_session

        base = TrafficMixScaleParams(
            num_stationary=700, num_mobile=320, lookups=500, rounds=5, shards=3
        )
        rows = []
        for jobs in (1, 3):
            with sweep_session(SweepConfig(jobs=jobs)):
                rows.append(dict(run_traffic_mix(base).rows[0]))
        assert rows[0] == rows[1]

    def test_shard_index_validated(self):
        with pytest.raises(ValueError):
            run_traffic_shard(
                TrafficMixParams(shard=3, shards=3, **self.PARAMS)
            )


# ----------------------------------------------------------------------
# Manifest schema v4 (peak RSS)
# ----------------------------------------------------------------------
class TestManifestV4:
    def test_build_manifest_carries_peak_rss(self):
        telemetry = Telemetry()
        payload = build_manifest(
            experiments=["ext-scale-columnar"], scale="quick", telemetry=telemetry
        )
        assert payload["schema_version"] >= 4
        validate_manifest(payload)
        rss = payload["peak_rss_kb"]
        assert rss is None or (isinstance(rss, int) and rss > 0)

    def test_peak_rss_helper_positive_on_posix(self):
        rss = peak_rss_kb()
        assert rss is None or rss > 0

    def test_validator_rejects_bad_rss(self):
        telemetry = Telemetry()
        payload = build_manifest(
            experiments=["x"], scale="quick", telemetry=telemetry
        )
        payload["peak_rss_kb"] = -3
        with pytest.raises(ManifestError, match="peak_rss_kb"):
            validate_manifest(payload)
        payload["peak_rss_kb"] = True
        with pytest.raises(ManifestError, match="peak_rss_kb"):
            validate_manifest(payload)
        payload["peak_rss_kb"] = None
        validate_manifest(payload)
