"""Experiment harnesses — one module per table/figure of the paper.

Each ``run_*`` function returns a :class:`~repro.experiments.common.ResultTable`
that the benchmarks print and the tests assert against.
"""

from .audit import CLAIMS, Claim, ClaimResult, render_audit, run_audit
from .bounds import run_eq1_check, run_hop_scaling, run_ldt_depth_scaling
from .common import ResultTable, format_float
from .io import table_from_json, table_to_csv, table_to_json, write_table
from .plots import ascii_bars, ascii_chart
from .ext_advertisement import AdvertisementLatencyParams, run_advertisement_latency
from .ext_batch import BatchUpdateParams, run_batch_update
from .ext_churn import ChurnOverheadParams, run_churn_overhead
from .ext_data import DataAvailabilityParams, run_data_availability
from .ext_overlay_choice import Ipv6Params, run_ipv6_route_optimisation
from .ext_proximity import ProximityRoutingParams, run_proximity_routing
from .ext_scaling import ScaleMixParams, ScalingParams, run_scale_mix, run_scaling
from .ext_binding import (
    BindingCostParams,
    StalenessParams,
    run_binding_cost,
    run_staleness_sweep,
)
from .ext_reliability import (
    AdaptiveRoutingParams,
    ReliabilityParams,
    run_adaptive_routing_reliability,
    run_replication_reliability,
)
from .fig3_responsibility import run_fig3, run_fig3_empirical, run_fig3_tree_sizes
from .fig7_naming import (
    BandPlacementParams,
    Fig7Params,
    measure_naming_scheme,
    run_band_placement,
    run_fig7,
)
from .fig8_ldt import (
    Fig8Params,
    build_random_ldt,
    run_fig8a,
    run_fig8b,
    run_fig8_workload,
    sample_tree_profiles,
)
from .fig9_locality import Fig9Params, measure_ldt_costs, run_fig9
from .table1_comparison import Table1Params, run_table1

__all__ = [
    "CLAIMS",
    "Claim",
    "ClaimResult",
    "render_audit",
    "run_audit",
    "run_eq1_check",
    "run_hop_scaling",
    "run_ldt_depth_scaling",
    "ResultTable",
    "format_float",
    "table_from_json",
    "table_to_csv",
    "table_to_json",
    "write_table",
    "ascii_bars",
    "ascii_chart",
    "AdvertisementLatencyParams",
    "run_advertisement_latency",
    "BatchUpdateParams",
    "run_batch_update",
    "ChurnOverheadParams",
    "run_churn_overhead",
    "DataAvailabilityParams",
    "run_data_availability",
    "ProximityRoutingParams",
    "run_proximity_routing",
    "ScaleMixParams",
    "ScalingParams",
    "run_scale_mix",
    "run_scaling",
    "BandPlacementParams",
    "run_band_placement",
    "Ipv6Params",
    "run_ipv6_route_optimisation",
    "BindingCostParams",
    "StalenessParams",
    "run_binding_cost",
    "run_staleness_sweep",
    "ReliabilityParams",
    "AdaptiveRoutingParams",
    "run_adaptive_routing_reliability",
    "run_replication_reliability",
    "run_fig3",
    "run_fig3_empirical",
    "run_fig3_tree_sizes",
    "Fig7Params",
    "measure_naming_scheme",
    "run_fig7",
    "Fig8Params",
    "build_random_ldt",
    "run_fig8a",
    "run_fig8b",
    "run_fig8_workload",
    "sample_tree_profiles",
    "Fig9Params",
    "measure_ldt_costs",
    "run_fig9",
    "Table1Params",
    "run_table1",
]
