"""Tests for the per-node load ledger (:mod:`repro.sim.nodestats`)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.sim.nodestats import (
    KINDS,
    NodeLoadLedger,
    gini,
    imbalance_stats,
    top_hotspots,
)


class TestGini:
    def test_perfect_equality_zero(self):
        assert gini(np.ones(10)) == pytest.approx(0.0)

    def test_single_hotspot_near_one(self):
        loads = np.zeros(100)
        loads[0] = 1000.0
        assert gini(loads) == pytest.approx(0.99, abs=1e-9)

    def test_empty_and_zero_population(self):
        assert gini(np.array([])) == 0.0
        assert gini(np.zeros(5)) == 0.0

    def test_matches_bruteforce_definition(self):
        gen = np.random.default_rng(29)
        loads = gen.integers(0, 50, size=40).astype(np.float64)
        n = len(loads)
        diffs = np.abs(loads[:, None] - loads[None, :]).sum()
        brute = diffs / (2.0 * n * n * loads.mean())
        assert gini(loads) == pytest.approx(brute, rel=1e-12)


class TestImbalanceStats:
    def test_basic_fields(self):
        stats = imbalance_stats(np.array([0.0, 1.0, 3.0]))
        assert stats["nodes"] == 3
        assert stats["total"] == pytest.approx(4.0)
        assert stats["mean"] == pytest.approx(4.0 / 3.0)
        assert stats["max"] == pytest.approx(3.0)
        assert stats["max_mean"] == pytest.approx(3.0 / (4.0 / 3.0))
        assert 0.0 <= stats["gini"] <= 1.0

    def test_top_hotspots_sorted(self):
        loads = {10: 5, 11: 1, 12: 9, 13: 0}
        top = top_hotspots(loads, k=2)
        assert top == [(12, 9), (10, 5)]

    def test_top_hotspots_ties_break_by_key(self):
        assert top_hotspots({7: 4, 2: 4, 5: 4}, k=3) == [(2, 4), (5, 4), (7, 4)]


class TestLedger:
    def test_add_and_totals(self):
        led = NodeLoadLedger()
        led.add("routed", 7)
        led.add("routed", 7, 2)
        led.add("detour", 3)
        assert led.total("routed") == 3
        assert led.total("detour") == 1
        assert led.total("registrations") == 0

    def test_unknown_kind_rejected(self):
        led = NodeLoadLedger()
        with pytest.raises(ValueError):
            led.add("bogus", 1)

    def test_growth_across_doubling_boundary(self):
        led = NodeLoadLedger()
        # Force several matrix reallocations; every count must survive.
        for key in range(0, 500):
            led.add("routed", key)
        assert led.total("routed") == 500
        stats = led.imbalance("routed")
        assert stats["nodes"] == 500
        assert stats["gini"] == pytest.approx(0.0)

    def test_add_many_matches_loop(self):
        for size in (1, 11, 15, 16, 40):  # the scatter takes over at 16
            keys = ([3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5] * 4)[:size]
            for amounts in (None, [1 + i % 4 for i in range(size)]):
                a = NodeLoadLedger()
                a.add_many("ldt_fanout", keys, amounts)
                b = NodeLoadLedger()
                for i, k in enumerate(keys):
                    b.add("ldt_fanout", k, amounts[i] if amounts else 1)
                # counts and key registration order
                assert a.export_state() == b.export_state(), (size, amounts)

    def test_register_nodes_zero_load_counts_in_population(self):
        led = NodeLoadLedger()
        led.register_nodes(range(10))
        led.add("detour", 0, 10)
        stats = led.imbalance("detour")
        # All ten registered nodes are in the denominator, not just the
        # one that absorbed load.
        assert stats["nodes"] == 10
        assert stats["gini"] == pytest.approx(0.9)

    def test_merge_is_exact_addition(self):
        a = NodeLoadLedger()
        a.add("routed", 1, 3)
        a.add("detour", 2)
        b = NodeLoadLedger()
        b.add("routed", 1, 4)
        b.add("registrations", 9)
        a.merge_state(b.export_state())
        assert a.total("routed") == 7
        assert a.total("detour") == 1
        assert a.total("registrations") == 1

    def test_merge_order_free(self):
        parts = []
        for seed in (1, 2, 3):
            led = NodeLoadLedger()
            gen = np.random.default_rng(seed)
            led.add_many("routed", gen.integers(0, 64, 200).tolist())
            parts.append(led.export_state())
        fwd = NodeLoadLedger()
        for s in parts:
            fwd.merge_state(s)
        rev = NodeLoadLedger()
        for s in reversed(parts):
            rev.merge_state(s)
        # Key registration order differs between the two merge orders;
        # the per-node counts (the observable content) must not.
        assert fwd.counts("routed") == rev.counts("routed")
        assert fwd.imbalance("routed") == rev.imbalance("routed")

    def test_manifest_section_omits_zero_kinds(self):
        led = NodeLoadLedger()
        led.add("detour", 5, 4)
        led.add("detour", 6)
        section = led.manifest_section(top=3)
        assert set(section) == {"detour"}
        entry = section["detour"]
        assert entry["total"] == 5
        assert entry["top"][0] == [5, 4]
        for field in ("nodes", "mean", "max", "max_mean", "gini"):
            assert math.isfinite(entry[field])

    def test_all_kinds_known(self):
        led = NodeLoadLedger()
        for kind in KINDS:
            led.add(kind, 0)
        assert all(led.total(k) == 1 for k in KINDS)
