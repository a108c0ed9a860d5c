"""Tests for the extension experiments (timed advertisement latency,
replication reliability)."""

import pytest

from repro.experiments import (
    AdvertisementLatencyParams,
    ReliabilityParams,
    run_advertisement_latency,
    run_replication_reliability,
)


class TestAdvertisementLatency:
    @pytest.fixture(scope="class")
    def table(self):
        return run_advertisement_latency(
            AdvertisementLatencyParams(
                num_stationary=40, num_mobile=20, registry_size=10,
                max_values=(1, 4, 15),
            )
        )

    def test_chain_slowest(self, table):
        makespans = table.column("mean makespan")
        assert makespans[0] > makespans[1] > makespans[2]

    def test_chain_penalty_substantial(self, table):
        assert table.row_where("MAX", 1)["makespan vs MAX=15 (x)"] > 2.0

    def test_reference_row_is_one(self, table):
        assert table.row_where("MAX", 15)["makespan vs MAX=15 (x)"] == pytest.approx(1.0)

    def test_message_count_independent_of_capacity(self, table):
        """Fig 4 sends exactly one message per registrant regardless of
        tree shape — capacity buys latency, not bandwidth."""
        msgs = table.column("messages/wave")
        assert max(msgs) == min(msgs) == 10

    def test_depth_tracks_makespan(self, table):
        depths = table.column("mean depth")
        makespans = table.column("mean makespan")
        assert sorted(depths, reverse=True) == depths
        assert sorted(makespans, reverse=True) == makespans


class TestReplicationReliability:
    @pytest.fixture(scope="class")
    def table(self):
        return run_replication_reliability(
            ReliabilityParams(
                num_stationary=100, num_mobile=100,
                replication_factors=(1, 3, 5), trials=3,
            )
        )

    def test_survival_improves_with_k(self, table):
        col = table.column("measured survival")
        assert col[0] < col[1] <= col[2]

    def test_tracks_analytic(self, table):
        for row in table.rows:
            assert row["measured survival"] == pytest.approx(
                row["analytic 1 - f^k"], abs=0.08
            )

    def test_storage_cost_scales_with_k(self, table):
        loads = table.column("records/holder (mean)")
        assert loads[-1] > loads[0]

    def test_invalid_failure_fraction(self):
        with pytest.raises(ValueError):
            run_replication_reliability(
                ReliabilityParams(failure_fraction=1.0, trials=1)
            )


class TestStalenessSweep:
    @pytest.fixture(scope="class")
    def table(self):
        from repro.experiments import StalenessParams, run_staleness_sweep

        return run_staleness_sweep(
            StalenessParams(num_stationary=80, num_mobile=80, routes=200)
        )

    def test_cost_monotone_in_staleness(self, table):
        costs = table.column("mean cost")
        assert costs == sorted(costs)

    def test_warm_baseline_normalised(self, table):
        assert table.rows[0]["cost vs warm (x)"] == pytest.approx(1.0)
        assert table.rows[-1]["cost vs warm (x)"] > 1.2

    def test_resolutions_scale_with_p(self, table):
        res = table.column("mean resolutions")
        assert res[0] == 0.0
        assert res[-1] > 0.5


class TestBindingCost:
    @pytest.fixture(scope="class")
    def table(self):
        from repro.experiments import BindingCostParams, run_binding_cost

        return run_binding_cost(
            BindingCostParams(horizon=50.0, lookup_counts=(50, 800))
        )

    def test_early_binding_more_correct(self, table):
        for row in table.rows:
            assert row["early current-addr rate"] > row["late current-addr rate"]

    def test_early_binding_high_correctness(self, table):
        for row in table.rows:
            assert row["early current-addr rate"] > 0.9

    def test_late_binding_cheaper(self, table):
        for row in table.rows:
            assert row["late msgs"] < row["early msgs"]
            assert row["cheaper policy"] == "late"

    def test_late_cost_grows_with_lookups(self, table):
        msgs = table.column("late msgs")
        assert msgs[-1] > msgs[0]


class TestChurnOverhead:
    @pytest.fixture(scope="class")
    def table(self):
        from repro.experiments import ChurnOverheadParams, run_churn_overhead

        return run_churn_overhead(
            ChurnOverheadParams(
                num_stationary=50, num_mobile=50, duration=25.0,
                move_rates=(0.02, 0.2), lookups=80,
            )
        )

    def test_type_a_delivery_collapses_with_churn(self, table):
        col = table.column("Type A delivery")
        assert col[0] > col[-1]
        assert col[-1] < 0.2

    def test_message_overhead_ordering(self, table):
        """Per-move cost: Type B (1) < Bristle (publish + LDT) <
        Type A (full re-join)."""
        for row in table.rows:
            assert row["Type B msgs/unit"] < row["Bristle msgs/unit"]
            assert row["Bristle msgs/unit"] < row["Type A msgs/unit"]

    def test_overhead_scales_with_rate(self, table):
        for col_name in ("Type A msgs/unit", "Bristle msgs/unit"):
            col = table.column(col_name)
            assert col[-1] > col[0]

    def test_bristle_cost_stable_across_rates(self, table):
        costs = table.column("Bristle cost")
        assert max(costs) / min(costs) < 1.5


class TestDataAvailability:
    @pytest.fixture(scope="class")
    def table(self):
        from repro.experiments import DataAvailabilityParams, run_data_availability

        return run_data_availability(
            DataAvailabilityParams(
                num_stationary=50, num_mobile=50, num_items=200,
                moved_fractions=(0.0, 0.5, 1.0),
            )
        )

    def test_bristle_availability_perfect(self, table):
        assert all(r["Bristle availability"] == 1.0 for r in table.rows)

    def test_type_a_degrades_monotonically(self, table):
        col = table.column("Type A availability")
        assert col[0] == 1.0
        assert col == sorted(col, reverse=True)
        assert col[-1] < 0.7

    def test_misplacement_complements_availability(self, table):
        for row in table.rows:
            assert row["Type A misplaced (%)"] == pytest.approx(
                100 * (1 - row["Type A availability"]), abs=0.01
            )


class TestAdaptiveRouting:
    @pytest.fixture(scope="class")
    def table(self):
        from repro.experiments import AdaptiveRoutingParams, run_adaptive_routing_reliability

        return run_adaptive_routing_reliability(
            AdaptiveRoutingParams(num_nodes=200, routes=150, failed_fractions=(0.1, 0.3))
        )

    def test_adaptive_beats_greedy(self, table):
        for row in table.rows:
            assert row["adaptive delivery"] > row["greedy delivery"]

    def test_adaptive_near_perfect(self, table):
        for row in table.rows:
            assert row["adaptive delivery"] > 0.95

    def test_greedy_degrades(self, table):
        col = table.column("greedy delivery")
        assert col[-1] < col[0]

    def test_detour_cost_grows_with_failures(self, table):
        col = table.column("adaptive extra hops")
        assert col[-1] >= col[0] >= 0.0


class TestProximityRouting:
    @pytest.fixture(scope="class")
    def table(self):
        from repro.experiments import ProximityRoutingParams, run_proximity_routing

        return run_proximity_routing(
            ProximityRoutingParams(num_nodes=150, routes=150)
        )

    def test_aware_cheaper_than_blind(self, table):
        blind = table.row_where("variant", "blind")
        aware = table.row_where("variant", "aware")
        assert aware["mean path cost"] < blind["mean path cost"]

    def test_hop_count_stays_logarithmic(self, table):
        """§3: the optimisation 'still needs O(log N) hops'."""
        blind = table.row_where("variant", "blind")
        aware = table.row_where("variant", "aware")
        assert aware["mean hops"] == pytest.approx(blind["mean hops"], rel=0.3)

    def test_greedy_link_also_cheaper_than_blind(self, table):
        greedy = table.row_where("variant", "aware+greedy-link")
        assert greedy["cost vs blind (x)"] < 1.0


class TestBandPlacement:
    @pytest.fixture(scope="class")
    def table(self):
        from repro.experiments import BandPlacementParams, run_band_placement

        return run_band_placement(
            BandPlacementParams(num_stationary=120, routes=150, fractions=(0.3, 0.7))
        )

    def test_placement_immaterial(self, table):
        """The ablation's finding: band *position* does not matter — the
        wrap arc crosses the same mobile measure either way.  Only the
        band *width* (∇) drives the Figure-7 behaviour."""
        for row in table.rows:
            assert row["centred hops"] == pytest.approx(row["origin hops"], rel=0.15)
            assert row["centred res"] == pytest.approx(row["origin res"], abs=0.4)

    def test_resolutions_grow_with_mobility_either_way(self, table):
        for col in ("centred res", "origin res"):
            vals = table.column(col)
            assert vals[-1] > vals[0]


class TestOverlayChoice:
    @pytest.fixture(scope="class")
    def table(self):
        from repro.experiments.report import run_one

        return run_one("ext-overlays", "quick")

    def test_all_substrates_present(self, table):
        from repro.overlay.factory import OVERLAY_NAMES

        assert set(table.column("overlay")) == set(OVERLAY_NAMES)

    def test_prefix_overlays_fewer_hops_than_chord(self, table):
        chord = table.row_where("overlay", "chord")["discover hops"]
        for name in ("pastry", "tornado", "tapestry"):
            assert table.row_where("overlay", name)["discover hops"] < chord

    def test_can_smallest_state_most_hops(self, table):
        can = table.row_where("overlay", "can")
        others = [r for r in table.rows if r["overlay"] != "can"]
        assert can["mean state/node"] < min(r["mean state/node"] for r in others)
        assert can["discover hops"] > max(r["discover hops"] for r in others)


class TestIpv6RouteOptimisation:
    @pytest.fixture(scope="class")
    def table(self):
        from repro.experiments import Ipv6Params, run_ipv6_route_optimisation

        return run_ipv6_route_optimisation(
            Ipv6Params(num_stationary=50, num_mobile=50, lookups=150)
        )

    def test_detours_shrink_with_capability(self, table):
        col = table.column("triangular detours/lookup")
        assert col == sorted(col, reverse=True)
        assert col[-1] < col[0]

    def test_cost_improves_but_does_not_vanish(self, table):
        """§1's point: even full IPv6 capability keeps agents on the
        first-contact path (detours stay > 0)."""
        costs = table.column("mean path cost")
        assert costs[-1] < costs[0]
        assert table.rows[-1]["triangular detours/lookup"] > 0.0


class TestScaling:
    @pytest.fixture(scope="class")
    def table(self):
        from repro.experiments import ScalingParams, run_scaling

        return run_scaling(ScalingParams(sizes=(200, 400, 800), routes=200))

    def test_clustered_normalised_hops_flat(self, table):
        """O(log N): hops / log2 N bounded for the clustered scheme."""
        col = table.column("clustered / log2 N")
        assert max(col) / min(col) < 1.25

    def test_scrambled_normalised_hops_grow(self, table):
        col = table.column("scrambled / log2 N")
        assert col[-1] > col[0]

    def test_clustered_cheaper_at_every_size(self, table):
        for row in table.rows:
            assert row["hops clustered"] < row["hops scrambled"]


class TestBatchUpdate:
    @pytest.fixture(scope="class")
    def table(self):
        from repro.experiments import BatchUpdateParams, run_batch_update

        return run_batch_update(
            BatchUpdateParams(
                num_stationary=96, batch_sizes=(1, 8, 64), router_count=100
            )
        )

    def test_reduction_meets_gate_at_largest_k(self, table):
        """ROADMAP item 3 acceptance: ≥5x message reduction for a
        many-resource movement."""
        assert table.rows[-1]["reduction"] >= 5.0

    def test_reduction_grows_with_k(self, table):
        col = table.column("reduction")
        assert col[0] == pytest.approx(1.0)
        assert all(b > a for a, b in zip(col, col[1:]))

    def test_batched_cost_is_k_plus_log_n(self, table):
        """Batched messages normalised by (K + log₂ N) stay bounded while
        the per-key baseline grows like K · log N."""
        for row in table.rows:
            assert row["batched/(K+log2 N)"] <= 3.0

    def test_deterministic(self):
        from repro.experiments import BatchUpdateParams, run_batch_update

        params = BatchUpdateParams(
            num_stationary=64, batch_sizes=(1, 16), router_count=100
        )
        assert run_batch_update(params).rows == run_batch_update(params).rows


class TestExtensionParamValidation:
    def test_scaling_mobile_share_bounds(self):
        from repro.experiments import ScalingParams, run_scaling

        with pytest.raises(ValueError):
            run_scaling(ScalingParams(mobile_share=1.0, sizes=(100,)))

    def test_staleness_params_frozen(self):
        from repro.experiments import StalenessParams

        p = StalenessParams()
        with pytest.raises(Exception):
            p.routes = 1  # type: ignore[misc]

    def test_overlay_choice_deterministic(self):
        from repro.experiments.report import run_one

        t1 = run_one("ext-overlays", "quick")
        t2 = run_one("ext-overlays", "quick")
        assert t1.rows == t2.rows
