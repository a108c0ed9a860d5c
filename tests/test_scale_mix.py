"""Tests for the public-path scale runs (``repro.experiments.ext_scaling``).

Both scale experiments drive one :class:`~repro.core.bristle.BristleNetwork`
per seed through rounds of expiry, moves, leave/join pairs, discoveries
and routed messages.  Each seed is an independent ``sweep_map`` point, so
the table must not depend on the job count; the sanitizer must see the
run; and the mix knobs must show up in the counts they drive.
"""

from __future__ import annotations

import dataclasses
import math

import pytest

from repro import sanitize
from repro.experiments.ext_scaling import ScaleMixParams, run_scale_mix
from repro.experiments.parallel import SweepConfig, sweep_session
from repro.overlay.factory import OVERLAY_NAMES
from repro.sim.telemetry import telemetry_session

SMALL = ScaleMixParams(
    num_stationary=300, num_mobile=150, lookups=400, rounds=5, seeds=2, seed=29
)
#: The two registry mixes (``ext-scale-churn`` / ``ext-scale-traffic``)
#: at test size.
CHURN = dataclasses.replace(SMALL, churn_share=1 / 64)
TRAFFIC = dataclasses.replace(SMALL, zipf_s=1.1)
#: Every substrate under scrambled naming, as ``ext-hotspot`` and
#: ``ext-overlays`` run them, with churn so leaves count too.
SUBSTRATES = dataclasses.replace(
    CHURN, overlays=OVERLAY_NAMES, naming="scrambled", zipf_s=1.1
)


@pytest.fixture(scope="module")
def tables():
    return {"churn": run_scale_mix(CHURN), "traffic": run_scale_mix(TRAFFIC)}


class TestScaleMix:
    @pytest.mark.parametrize("mix", [CHURN, TRAFFIC], ids=["churn", "traffic"])
    def test_experiment_table_jobs_invariant(self, mix):
        rendered = []
        for jobs in (1, 2):
            with sweep_session(SweepConfig(jobs=jobs)):
                rendered.append(run_scale_mix(mix).render())
        assert rendered[0] == rendered[1]

    def test_sanitized_run_checks_without_violations(self):
        prev = sanitize.enabled()
        sanitize.set_enabled(True)
        sanitize.reset_counts()
        try:
            run_scale_mix(dataclasses.replace(CHURN, seeds=1))
            counts = sanitize.counts()
        finally:
            sanitize.set_enabled(prev)
            sanitize.reset_counts()
        assert sum(n for k, n in counts.items() if k != "violations") >= 1
        assert counts.get("violations", 0) == 0

    def test_one_row_per_seed(self, tables):
        for table in tables.values():
            assert [row["seed"] for row in table.rows] == [0, 1]
            for row in table.rows:
                assert row["N"] == 450 and row["lookups"] == 400
                assert row["moves"] > 0 and row["LDT deliveries"] > 0
                assert row["routes"] == 5 * math.ceil(80 / 16)

    def test_hits_bounded_by_lookups(self, tables):
        for table in tables.values():
            for row in table.rows:
                assert 0 < row["hit rate"] * row["lookups"] <= row["lookups"]
                # Leases lapse after four rounds, so some lookups miss.
                assert row["expired"] > 0 and row["hit rate"] < 1

    def test_churn_pairs_leaves_with_joins(self, tables):
        for row in tables["churn"].rows:
            assert row["joins"] == row["leaves"] > 0
        for row in tables["traffic"].rows:
            assert row["joins"] == row["leaves"] == 0

    def test_zipf_skew_concentrates_lookups(self, tables):
        # The top 1% of ranks draw far more than a uniform 1% share.
        for row in tables["traffic"].rows:
            assert row["hot share"] > 0.10
        for row in tables["churn"].rows:
            assert row["hot share"] < 0.05

    @pytest.mark.parametrize(
        "bad",
        [
            dict(lookups=0),
            dict(rounds=0),
            dict(churn_share=-0.1),
            dict(churn_share=1.0),
            dict(churn_share=math.nan),
            dict(zipf_s=-0.5),
            dict(zipf_s=math.nan),
            dict(num_mobile=0),
            dict(num_stationary=1),
            dict(overlays=()),
            dict(overlays=("chord", "kademlia")),
            dict(naming="hashed"),
        ],
    )
    def test_params_validated(self, bad):
        with pytest.raises(ValueError):
            ScaleMixParams(**bad)


class TestSubstrateAxis:
    @pytest.fixture(scope="class")
    def table(self):
        return run_scale_mix(SUBSTRATES)

    def test_one_row_per_seed_and_overlay(self, table):
        cells = [(row["seed"], row["overlay"]) for row in table.rows]
        assert cells == [(i, o) for i in (0, 1) for o in OVERLAY_NAMES]
        assert {row["naming"] for row in table.rows} == {"scrambled"}

    def test_overlays_of_one_seed_share_the_operation_stream(self, table):
        # The child seed depends on the seed index alone, so every
        # substrate of one seed faces the same moves, expiries, churn
        # and lookup targets: a paired comparison.
        for seed in (0, 1):
            rows = [row for row in table.rows if row["seed"] == seed]
            for col in ("moves", "expired", "leaves", "hit rate", "hot share"):
                assert len({row[col] for row in rows}) == 1, (seed, col)

    def test_holder_load_spreads_under_scrambled_naming(self, table):
        for row in table.rows:
            assert row["detours"] >= row["lookups"]
            assert 0.0 < row["gini"] < 1.0
            assert 1.0 < row["max/mean"] < row["N"]
            assert row["hops p50"] <= row["hops p99"]
            assert row["discover cost"] > 0 and row["mean state/node"] > 0

    def test_detours_column_sums_to_the_session_ledger(self):
        with sweep_session(SweepConfig(jobs=1)), telemetry_session() as tel:
            table = run_scale_mix(dataclasses.replace(SUBSTRATES, seeds=1))
        assert sum(table.column("detours")) == tel.nodeload.total("detour")
