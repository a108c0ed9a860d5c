"""Deterministic discrete-event simulation substrate.

This package provides the machinery every experiment runs on: a virtual
clock with an event heap (:class:`Engine`), named reproducible random
streams (:class:`RngStreams`), metric accumulators and a structured
tracer.
"""

from .engine import Engine, SimulationError
from .events import Event, EventKind, Priority
from .metrics import (
    Counter,
    Histogram,
    MetricsRegistry,
    QuantileSketch,
    Summary,
    record_cache_stats,
    summarize,
)
from .nodestats import KINDS, NodeLoadLedger, gini, imbalance_stats, top_hotspots
from .profile import PhaseProfiler
from .rng import RngStreams, derive_seed
from .telemetry import Telemetry, active_telemetry, telemetry_session
from .trace import NULL_TRACER, JsonlSink, Span, TraceRecord, Tracer, read_jsonl

__all__ = [
    "Engine",
    "SimulationError",
    "Event",
    "EventKind",
    "Priority",
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "QuantileSketch",
    "record_cache_stats",
    "Summary",
    "summarize",
    "KINDS",
    "NodeLoadLedger",
    "gini",
    "imbalance_stats",
    "top_hotspots",
    "PhaseProfiler",
    "RngStreams",
    "derive_seed",
    "Telemetry",
    "active_telemetry",
    "telemetry_session",
    "NULL_TRACER",
    "JsonlSink",
    "Span",
    "TraceRecord",
    "Tracer",
    "read_jsonl",
]
