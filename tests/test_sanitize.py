"""Tests for the runtime sanitizer (``repro.sanitize``).

Each invariant check is exercised both ways: silent on healthy
structures, raising :class:`SanitizerViolation` on corrupted ones.  The
hooks themselves are driven through real protocol operations (join /
leave / move / manifest writes) with the sanitizer enabled.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys

import pytest

from repro import sanitize
from repro.core.bristle import BristleNetwork
from repro.core.config import BristleConfig
from repro.core.ldt import _COLUMNS, LDTMember, LDTree, build_ldt
from repro.overlay.factory import make_overlay
from repro.overlay.keyspace import KeySpace
from repro.overlay.state import StatePair
from repro.sanitize import SanitizerViolation

from .oracles.rows import chord_row, set_chord_row

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture
def sanitizer():
    prev = sanitize.enabled()
    sanitize.set_enabled(True)
    sanitize.reset_counts()
    yield sanitize
    sanitize.set_enabled(prev)
    sanitize.reset_counts()


def small_net(seed=7):
    return BristleNetwork(
        BristleConfig(seed=seed, naming="scrambled"),
        num_stationary=40,
        num_mobile=20,
        router_count=60,
    )


# ----------------------------------------------------------------------
# Gating
# ----------------------------------------------------------------------
class TestGating:
    def test_disabled_by_default_in_tests(self):
        # The suite itself must not run under REPRO_SANITIZE, or the
        # disabled-path assertions below would be meaningless.
        assert not sanitize.enabled() or os.environ.get("REPRO_SANITIZE")

    def test_set_enabled_toggles(self):
        prev = sanitize.enabled()
        try:
            sanitize.set_enabled(True)
            assert sanitize.enabled() and sanitize.ACTIVE
            sanitize.set_enabled(False)
            assert not sanitize.enabled() and not sanitize.ACTIVE
        finally:
            sanitize.set_enabled(prev)

    def test_env_var_enables_on_import(self):
        code = "from repro import sanitize; print(sanitize.enabled())"
        env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
        for value, expected in (("1", "True"), ("0", "False")):
            env["REPRO_SANITIZE"] = value
            out = subprocess.run(
                [sys.executable, "-c", code],
                env=env,
                capture_output=True,
                text=True,
                timeout=60,
            )
            assert out.stdout.strip() == expected, out.stderr

    def test_disabled_hooks_do_not_count(self):
        sanitize.set_enabled(False)
        sanitize.reset_counts()
        pair = StatePair(key=1, refreshed_at=5.0)
        pair.refresh(1.0)  # backwards — but the sanitizer is off
        assert sanitize.counts() == {}


# ----------------------------------------------------------------------
# Lease monotonicity
# ----------------------------------------------------------------------
class TestLeaseChecks:
    def test_forward_refresh_clean(self, sanitizer):
        pair = StatePair(key=1, refreshed_at=1.0, ttl=30.0)
        pair.refresh(2.0, ttl=30.0)
        assert pair.refreshed_at == 2.0
        assert sanitizer.counts()["lease"] == 1

    def test_backwards_refresh_raises(self, sanitizer):
        pair = StatePair(key=1, refreshed_at=5.0)
        with pytest.raises(SanitizerViolation, match="backwards"):
            pair.refresh(1.0)
        assert sanitizer.counts()["violations"] == 1

    def test_negative_ttl_raises(self, sanitizer):
        pair = StatePair(key=1, refreshed_at=0.0)
        with pytest.raises(SanitizerViolation, match="TTL"):
            pair.refresh(1.0, ttl=-3.0)

    def test_infinite_ttl_allowed(self, sanitizer):
        pair = StatePair(key=1, refreshed_at=0.0)
        pair.refresh(1.0, ttl=math.inf)


# ----------------------------------------------------------------------
# Overlay consistency
# ----------------------------------------------------------------------
class TestOverlayChecks:
    def build(self, n=32):
        overlay = make_overlay("chord", KeySpace())
        step = (1 << 32) // n
        overlay.build([i * step + 17 for i in range(n)])
        return overlay

    def test_healthy_overlay_clean(self, sanitizer):
        overlay = self.build()
        key = int(overlay.keys[3])
        sanitize.check_overlay_consistency(overlay, key)
        assert sanitizer.counts()["overlay"] == 1

    def _memoised(self):
        """An overlay whose next-hop memo holds a route's hops (a
        target's second route stores them)."""
        overlay = self.build()
        source, target = int(overlay.keys[0]), int(overlay.keys[20])
        for _ in range(2):
            overlay.route(source, target)
        assert overlay._hop_memo[target][source] == int(overlay.keys[16])
        return overlay, source, target

    def test_memo_surviving_a_membership_change_raises(self, sanitizer):
        overlay, _, _ = self._memoised()
        with pytest.raises(SanitizerViolation, match="next-hop memo survived"):
            sanitize.check_overlay_consistency(overlay)

    def test_stale_memo_hit_raises(self, sanitizer):
        overlay, source, target = self._memoised()
        overlay.route(source, target)  # every hit agrees with the kernel
        assert sanitizer.counts()["hop_memo"] >= 1
        overlay._hop_memo[target][source] = int(overlay.keys[1])
        with pytest.raises(SanitizerViolation, match="memoised hop .* is stale"):
            overlay.route(source, target)

    def test_member_array_set_mismatch_raises(self, sanitizer):
        overlay = self.build()
        overlay._member_set.add(999_999)  # simulated corruption
        with pytest.raises(SanitizerViolation, match="disagree"):
            sanitize.check_overlay_consistency(overlay)

    def test_departed_key_still_listed_raises(self, sanitizer):
        overlay = self.build()
        ghost = int(overlay.keys[5])
        overlay._member_set.discard(ghost)  # half-completed leave
        with pytest.raises(SanitizerViolation):
            sanitize.check_overlay_consistency(overlay, ghost)

    def test_departed_key_kept_by_a_ring_neighbour_raises(self, sanitizer):
        """A leave whose repair skipped a holder: the member array is
        right, the departed key's predecessor still routes to it."""
        overlay = self.build()
        ghost, holder = int(overlay.keys[5]), int(overlay.keys[4])
        stale = chord_row(overlay, holder)
        overlay.remove_node(ghost)  # checked clean by the hook itself
        set_chord_row(overlay, holder, stale)  # the repair that did not happen
        with pytest.raises(SanitizerViolation, match=f"non-member neighbour {ghost}"):
            sanitize.check_overlay_consistency(overlay, ghost)

    def test_fires_on_the_tiny_ring_leave_bug(self, sanitizer):
        """The state issue 18's parent left behind — five members, r = 4,
        20 leaves and its successor 30 is never repaired — is what the
        neighbourhood check exists for (the parent was silent on it)."""
        overlay = make_overlay("chord", KeySpace())
        overlay.build([10, 20, 30, 40, 50])
        overlay.remove_node(20)
        assert overlay.neighbors_of(30) == [10, 40, 50]
        set_chord_row(overlay, 30, sorted(chord_row(overlay, 30) + [(20 - 30) % (1 << 32)]))
        assert overlay.neighbors_of(30) == [10, 20, 40, 50]  # the parent's answer
        with pytest.raises(SanitizerViolation, match="member 30 routes to non-member"):
            sanitize.check_overlay_consistency(overlay, 20)


# ----------------------------------------------------------------------
# LDT structure
# ----------------------------------------------------------------------
class TestLDTChecks:
    def members(self, n, capacity=4.0):
        return [LDTMember(key=100 + i, capacity=capacity) for i in range(n)]

    def test_built_tree_clean(self, sanitizer):
        tree = build_ldt(LDTMember(key=1, capacity=5.0), self.members(12))
        sanitize.check_ldt(tree, unit_cost=1.0)
        assert sanitizer.counts()["ldt"] == 1

    @staticmethod
    def corrupted(tree, **columns):
        """``tree`` with some columns replaced — a record is immutable, so
        corruption means building another one."""
        return LDTree(*(columns.get(n, getattr(tree, n)) for n in _COLUMNS))

    def test_capacity_overshoot_raises(self, sanitizer):
        # An overloaded root (Avail - v <= 0) must chain through a single
        # head; re-hang the chain's second member under the root so it
        # fans out to two children.
        tree = build_ldt(LDTMember(key=1, capacity=1.0), self.members(2))
        assert tree.parent_rows == (-1, 0, 1)  # the honest chain step
        bad = self.corrupted(tree, parent_rows=(-1, 0, 0), levels=(0, 1, 1))
        assert bad.fanouts == (2,)
        with pytest.raises(SanitizerViolation, match="fans out"):
            sanitize.check_ldt(bad, unit_cost=1.0)

    def test_structural_corruption_raises(self, sanitizer):
        tree = build_ldt(LDTMember(key=1, capacity=5.0), self.members(6))
        senders = list(tree.parent_rows)
        senders[3] = 3  # self-parent: not a tree
        with pytest.raises(SanitizerViolation):
            sanitize.check_ldt(self.corrupted(tree, parent_rows=senders))

    def test_parent_cycle_raises(self, sanitizer):
        # Rows 1 and 2 of a chain name each other as sender.
        tree = build_ldt(LDTMember(key=1, capacity=1.0), self.members(3))
        bad = self.corrupted(tree, parent_rows=(-1, 2, 1, 2))
        with pytest.raises(SanitizerViolation):
            sanitize.check_ldt(bad)

    def test_node_in_two_rows_raises(self, sanitizer):
        tree = build_ldt(LDTMember(key=1, capacity=5.0), self.members(4))
        keys = list(tree.keys)
        keys[2] = keys[1]  # one node reached twice: two parents
        with pytest.raises(SanitizerViolation, match="two rows"):
            sanitize.check_ldt(self.corrupted(tree, keys=keys))


# ----------------------------------------------------------------------
# Manifest round-trip
# ----------------------------------------------------------------------
class TestManifestChecks:
    def manifest(self):
        from repro.experiments.manifest import build_manifest
        from repro.sim.telemetry import Telemetry

        return build_manifest(
            experiments=["fig7"], scale="quick", telemetry=Telemetry()
        )

    def test_valid_manifest_clean(self, sanitizer):
        sanitize.check_manifest_roundtrip(self.manifest())
        assert sanitizer.counts()["manifest"] == 1

    def test_nan_payload_raises(self, sanitizer):
        payload = self.manifest()
        payload["metrics"] = {"broken": float("nan")}
        with pytest.raises(SanitizerViolation, match="strict JSON"):
            sanitize.check_manifest_roundtrip(payload)

    def test_unserialisable_payload_raises(self, sanitizer):
        payload = self.manifest()
        payload["config"] = {"bad": object()}
        with pytest.raises(SanitizerViolation, match="strict JSON"):
            sanitize.check_manifest_roundtrip(payload)

    def test_write_manifest_hook(self, sanitizer, tmp_path):
        from repro.experiments.io import write_manifest

        write_manifest(self.manifest(), str(tmp_path / "m.json"))
        assert sanitizer.counts()["manifest"] == 1


# ----------------------------------------------------------------------
# End-to-end: hooks fire during real protocol operations
# ----------------------------------------------------------------------
class TestProtocolHooks:
    def test_network_lifecycle_runs_checks_cleanly(self, sanitizer):
        net = small_net()
        before = dict(sanitizer.counts())
        assert before.get("overlay", 0) == 2  # both layer builds checked

        net.setup_random_registrations(registry_size=4)
        mobile = net.mobile_keys[0]
        net.move(mobile)  # publish + LDT advertisement
        fresh_key = (max(net.nodes) + 12345) % (1 << net.space.bits)
        net.join_mobile_node(fresh_key)
        net.leave_mobile_node(fresh_key)
        # State-table merge path (§2.3.1 replication): inserting a fresher
        # pair for a known peer refreshes the stored lease.
        holder = net.nodes[net.stationary_keys[0]]
        peer = net.stationary_keys[1]
        holder.state.insert(StatePair(key=peer, refreshed_at=0.0))
        holder.state.insert(StatePair(key=peer, refreshed_at=1.0))

        after = sanitizer.counts()
        assert after["ldt"] >= 1
        assert after["overlay"] >= before.get("overlay", 0) + 2
        assert after["lease"] >= 1
        assert "violations" not in after

    def test_checks_recorded_in_telemetry_session(self, sanitizer):
        from repro.sim.telemetry import Telemetry, telemetry_session

        tel = Telemetry()
        with telemetry_session(tel):
            small_net()
        assert tel.metrics.counter("sanitize.checks").value >= 2

    def test_summary_line_formats_counts(self, sanitizer):
        small_net()
        line = sanitize.summary_line()
        assert line.startswith("[sanitize] ")
        assert line.endswith("invariant checks, 0 violations")
        assert sanitize.summary_line(10, 2) == (
            "[sanitize] 10 invariant checks, 2 violations"
        )

    def test_disabled_network_build_runs_no_checks(self):
        sanitize.set_enabled(False)
        sanitize.reset_counts()
        small_net()
        assert sanitize.counts() == {}
