"""Extension benches: beyond the paper's figures.

* Timed LDT advertisement makespan across capacity mixes — the latency
  the Fig-8 structures imply.
* Location availability vs replication factor — §2.3.2's availability
  argument, quantified against 1 − f^k.
"""

import pytest

from repro.experiments import (
    AdvertisementLatencyParams,
    ReliabilityParams,
    run_advertisement_latency,
    run_replication_reliability,
)


def test_advertisement_latency(benchmark, record_table, paper_scale):
    params = (
        AdvertisementLatencyParams(num_stationary=200, num_mobile=200, registry_size=15)
        if paper_scale
        else AdvertisementLatencyParams()
    )
    table = benchmark.pedantic(
        lambda: run_advertisement_latency(params), rounds=1, iterations=1
    )
    record_table("ext_advertisement_latency", table)
    assert table.row_where("MAX", 1)["makespan vs MAX=15 (x)"] > 2.0
    makespans = table.column("mean makespan")
    assert makespans == sorted(makespans, reverse=True)


def test_replication_reliability(benchmark, record_table, paper_scale):
    params = (
        ReliabilityParams(num_stationary=400, num_mobile=400, trials=10)
        if paper_scale
        else ReliabilityParams()
    )
    table = benchmark.pedantic(
        lambda: run_replication_reliability(params), rounds=1, iterations=1
    )
    record_table("ext_reliability", table)
    for row in table.rows:
        assert row["measured survival"] == pytest.approx(
            row["analytic 1 - f^k"], abs=0.1
        )


def test_staleness_sweep(benchmark, record_table):
    from repro.experiments import run_staleness_sweep

    table = benchmark.pedantic(run_staleness_sweep, rounds=1, iterations=1)
    record_table("ext_staleness", table)
    costs = table.column("mean cost")
    assert costs == sorted(costs)


def test_binding_tradeoff(benchmark, record_table):
    from repro.experiments import run_binding_cost

    table = benchmark.pedantic(run_binding_cost, rounds=1, iterations=1)
    record_table("ext_binding", table)
    for row in table.rows:
        assert row["early current-addr rate"] > row["late current-addr rate"]


def test_churn_overhead(benchmark, record_table, paper_scale):
    from repro.experiments import ChurnOverheadParams, run_churn_overhead

    params = (
        ChurnOverheadParams(num_stationary=300, num_mobile=300, lookups=600)
        if paper_scale
        else ChurnOverheadParams()
    )
    table = benchmark.pedantic(
        lambda: run_churn_overhead(params), rounds=1, iterations=1
    )
    record_table("ext_churn", table)
    for row in table.rows:
        assert row["Type B msgs/unit"] < row["Bristle msgs/unit"] < row["Type A msgs/unit"]


def test_data_availability(benchmark, record_table, paper_scale):
    from repro.experiments import DataAvailabilityParams, run_data_availability

    params = (
        DataAvailabilityParams(num_stationary=250, num_mobile=250, num_items=1500)
        if paper_scale
        else DataAvailabilityParams()
    )
    table = benchmark.pedantic(
        lambda: run_data_availability(params), rounds=1, iterations=1
    )
    record_table("ext_data_availability", table)
    assert all(r["Bristle availability"] == 1.0 for r in table.rows)
    col = table.column("Type A availability")
    assert col[-1] < col[0]


def test_adaptive_routing_reliability(benchmark, record_table):
    from repro.experiments import run_adaptive_routing_reliability

    table = benchmark.pedantic(
        run_adaptive_routing_reliability, rounds=1, iterations=1
    )
    record_table("ext_adaptive_routing", table)
    for row in table.rows:
        assert row["adaptive delivery"] > row["greedy delivery"]


def test_proximity_routing(benchmark, record_table):
    from repro.experiments import run_proximity_routing

    table = benchmark.pedantic(run_proximity_routing, rounds=1, iterations=1)
    record_table("ext_proximity", table)
    blind = table.row_where("variant", "blind")["mean path cost"]
    aware = table.row_where("variant", "aware")["mean path cost"]
    assert aware < blind


def test_band_placement_ablation(benchmark, record_table):
    from repro.experiments import run_band_placement

    table = benchmark.pedantic(run_band_placement, rounds=1, iterations=1)
    record_table("ext_band_placement", table)
    for row in table.rows:
        assert row["centred hops"] == pytest.approx(row["origin hops"], rel=0.2)


def test_overlay_choice(benchmark, record_table):
    from repro.experiments.report import run_one

    table = benchmark.pedantic(
        lambda: run_one("ext-overlays", "default"), rounds=1, iterations=1
    )
    record_table("ext_overlay_choice", table)
    chord = table.row_where("overlay", "chord")["discover hops"]
    assert table.row_where("overlay", "pastry")["discover hops"] < chord


def test_ipv6_route_optimisation(benchmark, record_table):
    from repro.experiments import run_ipv6_route_optimisation

    table = benchmark.pedantic(
        run_ipv6_route_optimisation, rounds=1, iterations=1
    )
    record_table("ext_ipv6", table)
    col = table.column("triangular detours/lookup")
    assert col[-1] < col[0]


def test_scaling_in_n(benchmark, record_table, paper_scale):
    from repro.experiments import ScalingParams, run_scaling

    params = (
        ScalingParams(sizes=(500, 1000, 2000, 4000), routes=800)
        if paper_scale
        else ScalingParams()
    )
    table = benchmark.pedantic(lambda: run_scaling(params), rounds=1, iterations=1)
    record_table("ext_scaling", table)
    col = table.column("clustered / log2 N")
    assert max(col) / min(col) < 1.3
