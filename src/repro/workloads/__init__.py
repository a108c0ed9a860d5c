"""Workload generation: capacities, route samples, churn and scenarios."""

from .capacities import constant_capacities, pareto_capacities, uniform_capacities
from .churn import ChurnEvent, ChurnEventType, ChurnSchedule, poisson_churn
from .routes import sample_key_lookups, sample_stationary_pairs
from .scenarios import ComparisonScenario, build_bristle, build_comparison_scenario

__all__ = [
    "constant_capacities",
    "pareto_capacities",
    "uniform_capacities",
    "ChurnEvent",
    "ChurnEventType",
    "ChurnSchedule",
    "poisson_churn",
    "sample_key_lookups",
    "sample_stationary_pairs",
    "ComparisonScenario",
    "build_bristle",
    "build_comparison_scenario",
]
