"""Aggregate experiment runner: regenerate every table and figure at once.

Used by the command-line interface (``python -m repro``) and by anyone who
wants the full evaluation as a single text report::

    from repro.experiments.report import run_all, render_report
    print(render_report(run_all(scale="quick")))
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from .bounds import run_eq1_check, run_hop_scaling, run_ldt_depth_scaling
from .common import ResultTable
from .ext_advertisement import run_advertisement_latency
from .ext_batch import BatchUpdateParams, run_batch_update
from .ext_binding import run_binding_cost, run_staleness_sweep
from .ext_churn import run_churn_overhead, run_membership_churn
from .ext_data import run_data_availability
from .ext_overlay_choice import run_ipv6_route_optimisation
from .ext_proximity import run_proximity_routing
from .ext_scaling import ScaleMixParams, run_scale_mix, run_scaling
from .ext_reliability import run_adaptive_routing_reliability, run_replication_reliability
from .fig3_responsibility import run_fig3, run_fig3_empirical, run_fig3_tree_sizes
from .fig7_naming import Fig7Params, run_band_placement, run_fig7
from .fig8_ldt import Fig8Params, run_fig8a, run_fig8b, run_fig8_workload
from .fig9_locality import Fig9Params, run_fig9
from .table1_comparison import Table1Params, run_table1
from ..overlay.factory import OVERLAY_NAMES
from ..sim.telemetry import active_telemetry

__all__ = [
    "EXPERIMENTS",
    "resolve_experiment_name",
    "run_all",
    "run_one",
    "render_report",
]


def _fig7(scale: str) -> ResultTable:
    if scale == "paper":
        return run_fig7(Fig7Params.paper_scale())
    if scale == "quick":
        return run_fig7(
            Fig7Params(
                num_stationary=250,
                routes=500,
                router_count=300,
                fractions=(0.0, 0.2, 0.4, 0.6, 0.8),
            )
        )
    return run_fig7()


def _fig8a(scale: str) -> ResultTable:
    if scale == "paper":
        return run_fig8a(Fig8Params.paper_scale())
    if scale == "quick":
        return run_fig8a(Fig8Params(trees_per_max=60, max_values=(1, 2, 4, 8, 15)))
    return run_fig8a()


def _fig9(scale: str) -> ResultTable:
    if scale == "paper":
        return run_fig9(Fig9Params.paper_scale())
    if scale == "quick":
        return run_fig9(
            Fig9Params(
                num_stationary=80,
                router_count=300,
                fractions=(0.2, 0.5, 0.8),
                trees_sampled=80,
            )
        )
    return run_fig9()


def _ext_batch(scale: str) -> ResultTable:
    if scale == "paper":
        return run_batch_update(
            BatchUpdateParams(
                num_stationary=1024, batch_sizes=(1, 10, 100, 1000, 2000)
            )
        )
    if scale == "quick":
        return run_batch_update(
            BatchUpdateParams(
                num_stationary=128,
                batch_sizes=(1, 8, 64, 512),
                router_count=120,
            )
        )
    return run_batch_update()


def _table1(scale: str) -> ResultTable:
    if scale == "paper":
        return run_table1(Table1Params(num_stationary=500, num_mobile=500, lookups=2000))
    if scale == "quick":
        return run_table1(Table1Params(num_stationary=100, num_mobile=100, lookups=300))
    return run_table1()


def _fig3_empirical(scale: str) -> ResultTable:
    return run_fig3_empirical(num_stationary=120 if scale == "quick" else 400)


def _fig3_trees(scale: str) -> ResultTable:
    return run_fig3_tree_sizes(num_stationary=120 if scale == "quick" else 300)


#: Population per scale of both scale-mix runs (``default`` is the
#: :class:`ScaleMixParams` default).
_SCALE_MIX_SIZES: Dict[str, Dict[str, int]] = {
    "quick": dict(
        num_stationary=2_500, num_mobile=1_200, lookups=1_500, rounds=6, seeds=2
    ),
    "default": {},
    "paper": dict(
        num_stationary=70_000, num_mobile=30_000, lookups=20_000, seeds=1
    ),
}


def _ext_scale_churn(scale: str) -> ResultTable:
    return run_scale_mix(
        ScaleMixParams(churn_share=1 / 64, **_SCALE_MIX_SIZES[scale])
    )


def _ext_scale_traffic(scale: str) -> ResultTable:
    return run_scale_mix(
        ScaleMixParams(zipf_s=1.1, seed=61, **_SCALE_MIX_SIZES[scale])
    )


#: The record-holder hotspot study per scale: Zipf lookups against
#: every stationary substrate under scrambled naming.
_HOTSPOT_MIX: Dict[str, ScaleMixParams] = {
    scale: ScaleMixParams(
        num_stationary=stationary,
        num_mobile=mobile,
        lookups=lookups,
        seeds=1,
        zipf_s=1.1,
        seed=47,
        overlays=OVERLAY_NAMES,
        naming="scrambled",
    )
    for scale, (stationary, mobile, lookups) in {
        "quick": (64, 32, 300),
        "default": (192, 96, 1_200),
        "paper": (512, 256, 5_000),
    }.items()
}

#: The substrate comparison (every scale): uniform lookups.
_OVERLAYS_MIX = ScaleMixParams(
    num_stationary=200,
    num_mobile=100,
    lookups=300,
    seeds=1,
    seed=43,
    overlays=OVERLAY_NAMES,
    naming="scrambled",
)


#: name → (description, runner).  Runner takes scale in
#: {"quick", "default", "paper"}.
EXPERIMENTS: Dict[str, Tuple[str, Callable[[str], ResultTable]]] = {
    "table1": ("Table 1 — Type A / Type B / Bristle, measured", _table1),
    "fig3": ("Figure 3 — responsibility curves (analytic)", lambda s: run_fig3()),
    "fig3-empirical": ("Figure 3 — member-only responsibility, measured", _fig3_empirical),
    "fig3-trees": ("Figure 3 — both tree kinds built and measured", _fig3_trees),
    "fig7": ("Figure 7 — scrambled vs clustered naming", _fig7),
    "fig8a": ("Figure 8(a) — LDT structure vs capacity", _fig8a),
    "fig8b": ("Figure 8(b) — heterogeneity / load balance", lambda s: run_fig8b()),
    "fig8-workload": (
        "Figure 8 (workload sweep) — depth vs node load (§4.2)",
        lambda s: run_fig8_workload(),
    ),
    "fig9": ("Figure 9 — LDT locality", _fig9),
    "bounds-hops": ("§2.3 — lookup/state scaling", lambda s: run_hop_scaling()),
    "bounds-ldt": ("§2.3.2 — advertisement depth", lambda s: run_ldt_depth_scaling()),
    "bounds-eq1": ("§3 eq. (1) — clustered-naming knee", lambda s: run_eq1_check()),
    "ext-latency": (
        "Extension — timed LDT advertisement makespan",
        lambda s: run_advertisement_latency(),
    ),
    "ext-reliability": (
        "Extension — availability vs replication factor",
        lambda s: run_replication_reliability(),
    ),
    "ext-staleness": (
        "Extension — route cost vs cache staleness",
        lambda s: run_staleness_sweep(),
    ),
    "ext-binding": (
        "Extension — early vs late binding trade-off",
        lambda s: run_binding_cost(),
    ),
    "ext-batch-update": (
        "Extension — batched multi-resource location updates",
        _ext_batch,
    ),
    "ext-churn": (
        "Extension — maintenance overhead vs mobility rate",
        lambda s: run_churn_overhead(),
    ),
    "ext-churn-repair": (
        "Extension — incremental repair cost under membership churn",
        lambda s: run_membership_churn(),
    ),
    "ext-adaptive": (
        "Extension — greedy vs adaptive routing under failures",
        lambda s: run_adaptive_routing_reliability(),
    ),
    "ext-data": (
        "Extension — stored-data availability under mobility",
        lambda s: run_data_availability(),
    ),
    "ext-proximity": (
        "Extension — §3 optimisation (1): proximity-aware routing",
        lambda s: run_proximity_routing(),
    ),
    "ext-band": (
        "Extension — clustered-band placement ablation",
        lambda s: run_band_placement(),
    ),
    "ext-overlays": (
        "Extension — stationary-layer substrate comparison",
        lambda s: run_scale_mix(_OVERLAYS_MIX),
    ),
    "ext-ipv6": (
        "Extension — Mobile IPv6 route optimisation (Type B)",
        lambda s: run_ipv6_route_optimisation(),
    ),
    "ext-scaling": (
        "Extension — end-to-end scaling in N",
        lambda s: run_scaling(),
    ),
    "ext-hotspot": (
        "Extension — hotspot load under Zipf-skewed discovery",
        lambda s: run_scale_mix(_HOTSPOT_MIX[s]),
    ),
    "ext-scale-churn": (
        "Extension — the public operation mix at scale, with leave/join churn",
        _ext_scale_churn,
    ),
    "ext-scale-traffic": (
        "Extension — the public operation mix at scale, Zipf-skewed lookups",
        _ext_scale_traffic,
    ),
}


#: Driver-module spellings accepted as experiment names (``repro run
#: fig7_naming`` works like ``repro run fig7``).
NAME_ALIASES: Dict[str, str] = {
    "fig3_responsibility": "fig3",
    "fig7_naming": "fig7",
    "fig8_ldt": "fig8a",
    "fig9_locality": "fig9",
    "table1_comparison": "table1",
}


def resolve_experiment_name(name: str) -> str:
    """Canonical experiment name for ``name`` (KeyError when unknown).

    Accepts the registry key itself (``fig7``), underscore spellings of
    hyphenated keys (``ext_staleness`` → ``ext-staleness``) and the
    driver-module aliases of :data:`NAME_ALIASES`.
    """
    if name in EXPERIMENTS:
        return name
    dashed = name.replace("_", "-")
    if dashed in EXPERIMENTS:
        return dashed
    if name in NAME_ALIASES:
        return NAME_ALIASES[name]
    raise KeyError(
        f"unknown experiment {name!r}; choose from {sorted(EXPERIMENTS)}"
    )


def run_one(name: str, scale: str = "default") -> ResultTable:
    """Run a single named experiment (see :data:`EXPERIMENTS`).

    Inside a telemetry session the run is wrapped in an
    ``experiment:<name>`` profiler phase and an ``experiment`` span, so
    the manifest records where each experiment's wall-clock went.
    """
    if scale not in ("quick", "default", "paper"):
        raise ValueError(f"scale must be quick/default/paper, got {scale!r}")
    name = resolve_experiment_name(name)
    _, runner = EXPERIMENTS[name]
    tel = active_telemetry()
    if tel is None:
        return runner(scale)
    with tel.profiler.phase(f"experiment:{name}"):
        with tel.tracer.span("experiment", experiment=name, scale=scale):
            return runner(scale)


def run_all(
    scale: str = "default", names: Optional[List[str]] = None
) -> Dict[str, ResultTable]:
    """Run every (or the named) experiments; returns name → table."""
    selected = (
        [resolve_experiment_name(n) for n in names]
        if names is not None
        else list(EXPERIMENTS)
    )
    return {name: run_one(name, scale) for name in selected}


def render_report(tables: Dict[str, ResultTable], precision: int = 3) -> str:
    """One text document with every table, in EXPERIMENTS order."""
    order = [n for n in EXPERIMENTS if n in tables]
    order += [n for n in tables if n not in EXPERIMENTS]
    parts = []
    for name in order:
        desc = EXPERIMENTS.get(name, ("", None))[0]
        if desc:
            parts.append(f"# {name}: {desc}")
        parts.append(tables[name].render(precision))
        parts.append("")
    return "\n".join(parts)
