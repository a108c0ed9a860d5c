"""Every cold-cache route entry against its loop reference
(``tests/oracles/route_sweep.py``): Figure 7 under both routing policies,
the eq. (1) check, the band-placement ablation, the staleness sweep and
the scaling sweep render the same table, footers included, serially, at
two jobs and with per-point underlays."""

import dataclasses

import pytest

from repro.experiments import (
    BandPlacementParams,
    Fig7Params,
    ScalingParams,
    StalenessParams,
    run_band_placement,
    run_eq1_check,
    run_fig7,
    run_scaling,
    run_staleness_sweep,
)
from repro.experiments.parallel import SweepConfig, sweep_session
from repro.net.underlay import shared_underlay_cache
from repro.sim.telemetry import Telemetry, telemetry_session

from .oracles import route_sweep as oracle

_FIG7 = Fig7Params(num_stationary=60, routes=80, router_count=120, fractions=(0.0, 0.3, 0.6))
_EQ1 = dict(num_stationary=60, fractions=(0.3, 0.6), routes=80, seed=15)
_BAND = BandPlacementParams(num_stationary=60, fractions=(0.3, 0.7), routes=80, router_count=120)
_STALE = StalenessParams(
    num_stationary=50, num_mobile=50, routes=80, p_stale_values=(0, 0.37, 1), router_count=120
)
_SCALING = ScalingParams(sizes=(100, 160), routes=60)
_ABLATION = dataclasses.replace(_FIG7, routing_policy="prefer_resolved")

CASES = {
    "fig7": (lambda: run_fig7(_FIG7), lambda: oracle.fig7(_FIG7)),
    "fig7-prefer-resolved": (lambda: run_fig7(_ABLATION), lambda: oracle.fig7(_ABLATION)),
    "bounds-eq1": (lambda: run_eq1_check(**_EQ1), lambda: oracle.eq1(**_EQ1)),
    "ext-band": (lambda: run_band_placement(_BAND), lambda: oracle.band_placement(_BAND)),
    "ext-staleness": (lambda: run_staleness_sweep(_STALE), lambda: oracle.staleness(_STALE)),
    "ext-scaling": (lambda: run_scaling(_SCALING), lambda: oracle.scaling(_SCALING)),
}


def _render(run, sweep):
    """One run from a cold shared underlay cache, under ``sweep``."""
    shared_underlay_cache().clear()
    with sweep_session(sweep):
        return run().render()


@pytest.mark.parametrize(
    "sweep",
    [SweepConfig(), SweepConfig(jobs=2), SweepConfig(reuse_underlay=False)],
    ids=["serial", "jobs2", "own-underlays"],
)
@pytest.mark.parametrize("name", sorted(CASES))
def test_entry_renders_the_reference_table(name, sweep):
    entry, reference = CASES[name]
    assert _render(entry, sweep) == _render(reference, SweepConfig(reuse_underlay=sweep.reuse_underlay))


def test_fig7_footer_counts_only_its_own_phases():
    """An entry run before Fig 7 in one profiled session adds its build,
    warmup and route time to the session, not to Fig 7's footer."""
    tel = Telemetry(show_phase_footers=True)
    with telemetry_session(tel):
        run_band_placement(_BAND)
        before = tel.profiler.wall_times()
        table = run_fig7(_FIG7)
    after = tel.profiler.wall_times()
    phases = ("build", "warmup", "route")
    assert all(after[n] > before.get(n, 0.0) for n in phases)
    expected = ", ".join(f"{n} {after[n] - before.get(n, 0.0):.3f}s" for n in phases)
    assert f"phases: {expected}" in table.footers


def test_levels_share_one_network_and_pair_sample():
    """Per ``p_stale`` level: no resolution at 0, every route's mobile hop
    resolved at 1, and eq. (1)'s unsafe count only under clustered naming."""
    from repro.experiments.fig7_naming import RoutePoint, measure_routes

    point = RoutePoint("clustered", 40, 40, 60, seed=9, router_count=100, p_stale=(0.0, 1.0))
    res = measure_routes(point)
    warm, cold = res["levels"]
    assert warm["resolutions"] == warm["with_res"] == 0
    assert cold["resolutions"] > 0 and 0 < cold["with_res"] <= 60
    assert warm["hops"] <= cold["hops"]
    assert 0 < res["unsafe"] <= 60
    scrambled = measure_routes(RoutePoint("scrambled", 40, 40, 60, seed=9, router_count=100))
    assert scrambled["unsafe"] == 0
