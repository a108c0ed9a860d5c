"""Parallel sweep engine: deterministic fan-out over independent points.

Every figure in the paper is a sweep of *independent* points (Fig 7 is
9 mobility fractions × 2 naming schemes; Fig 9, Table 1 and the ext_*
drivers are the same shape).  :func:`sweep_map` fans those points out over
a fork-based process pool while keeping three invariants (see
docs/performance.md):

**Determinism** — results are collected in point order and every source of
randomness derives from the point itself, never from scheduling.  Drivers
obtain per-point seeds through :func:`derive_point_seed`, which feeds a
structured label through :func:`repro.sim.rng.derive_seed` (splitmix64
name-mixing).  The scheme is *positional-independence by construction*:
``seed + i`` style derivations are banned because adjacent integer seeds
produce correlated low-entropy labels and silently collide when two sweeps
overlap; the label mix gives 64-bit-avalanched child seeds that are unique
per ``(master, point, variant)`` (checked by :func:`derive_point_seeds`).

**Telemetry parity** — each worker runs its point inside a fresh
:func:`~repro.sim.telemetry.telemetry_session` whose tracer is disabled
(the parent's JSONL sink fd must not be written from two processes) and
ships the session back via ``Telemetry.export_state``; the parent merges
counters (summed), histograms (samples extended), phase wall-times
(attributed additively) and network provenance, so ``--profile`` output
and the run manifest have identical shape at ``jobs=1`` and ``jobs=8``.

**Graceful fallback** — ``jobs=1``, platforms without ``fork`` and pool
start-up failures all degrade to an in-process loop with the same
ordering and telemetry behaviour.

The ambient :func:`sweep_session` mirrors ``telemetry_session``: the CLI
opens one around a run and drivers pick the job count and underlay-reuse
policy up via :func:`active_sweep` without growing their signatures.
"""

from __future__ import annotations

import contextlib
import dataclasses
import multiprocessing
import os
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..net.underlay import (
    UnderlayBundle,
    build_underlay,
    cache_stats_delta,
    shared_underlay_cache,
)
from ..sim.rng import derive_seed
from ..sim.telemetry import Telemetry, active_telemetry, telemetry_session
from ..sim.trace import Tracer
from .common import driver_profiler

__all__ = [
    "SweepConfig",
    "sweep_session",
    "active_sweep",
    "resolve_jobs",
    "derive_point_seed",
    "derive_point_seeds",
    "sweep_map",
    "sweep_underlay",
    "warm_shared_underlay",
]


@dataclasses.dataclass(frozen=True)
class SweepConfig:
    """Ambient sweep policy: worker count and underlay-cache usage.

    Parameters
    ----------
    jobs:
        Process-pool width for :func:`sweep_map`; ``1`` runs in-process.
    reuse_underlay:
        When ``True`` (default), drivers fetch prebuilt underlays from
        :func:`repro.net.underlay.shared_underlay_cache`; ``False`` makes
        every point build its own bundle (same derivation, so results are
        byte-identical — only wall-clock differs).
    """

    jobs: int = 1
    reuse_underlay: bool = True

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")


_ACTIVE: List[SweepConfig] = []


def active_sweep() -> SweepConfig:
    """The innermost open sweep config (default: serial, reuse on)."""
    return _ACTIVE[-1] if _ACTIVE else SweepConfig()


@contextlib.contextmanager
def sweep_session(config: Optional[SweepConfig] = None) -> Iterator[SweepConfig]:
    """Make ``config`` (or the default) the ambient sweep policy.

    Sessions nest; the innermost wins — mirroring ``telemetry_session``.
    """
    cfg = config if config is not None else SweepConfig()
    _ACTIVE.append(cfg)
    try:
        yield cfg
    finally:
        _ACTIVE.pop()


def resolve_jobs(jobs: Optional[int]) -> int:
    """An explicit ``jobs`` argument, else the ambient session's."""
    if jobs is None:
        return active_sweep().jobs
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return jobs


def sweep_underlay(underlay_seed: int, routers: int) -> UnderlayBundle:
    """A point's ``(underlay_seed, routers)`` bundle: the shared one when
    the sweep reuses underlays, else a build of its own."""
    if active_sweep().reuse_underlay:
        return shared_underlay_cache().get(underlay_seed, routers)
    return build_underlay(underlay_seed, routers)


def warm_shared_underlay(underlay_seed: int, routers: int) -> Dict[str, float]:
    """Build and fully warm the shared ``(underlay_seed, routers)`` bundle
    once, before any fork, when the sweep reuses underlays.

    Every attachment point is covered, so a point's own pre-warm is all
    hits and every point sees an identical cache whatever the job count or
    point order.  Returns the oracle's counters over the warm-up (empty
    without reuse: each point then builds its own bundle).
    """
    if not active_sweep().reuse_underlay:
        return {}
    bundle = shared_underlay_cache().get(underlay_seed, routers)
    before = bundle.oracle.cache_stats()
    with driver_profiler().phase("warmup"):
        bundle.oracle.prewarm(bundle.topology.attachment_points())
    return cache_stats_delta(before, bundle.oracle.cache_stats())


# ----------------------------------------------------------------------
# Deterministic per-point seed derivation
# ----------------------------------------------------------------------
def _point_token(point: Any) -> str:
    """A stable, platform-independent text token for a sweep point.

    ``repr`` is stable for the types sweeps use as points (ints, floats,
    strings, tuples of those, dataclasses with such fields); floats repr
    round-trip exactly in Python 3.
    """
    return repr(point)


def derive_point_seed(master_seed: int, point: Any, variant: str = "") -> int:
    """Child seed for one ``(point, variant)`` of a sweep.

    The label ``sweep|<variant>|<point>`` is folded into ``master_seed``
    with the same splitmix64 mix that names RNG streams, so the child seed
    is a pure function of *what* the point is — never of its position in
    the sweep or of which process runs it.  Distinct variants of the same
    point (e.g. Fig 7's scrambled vs clustered schemes) therefore get
    decoupled RNG streams, fixing the seed-reuse bug where both schemes
    consumed identical draws.
    """
    return derive_seed(int(master_seed), f"sweep|{variant}|{_point_token(point)}")


def derive_point_seeds(
    master_seed: int,
    points: Sequence[Any],
    variants: Sequence[str] = ("",),
) -> Dict[Tuple[Any, str], int]:
    """Seeds for the full ``points × variants`` grid, collision-checked.

    Raises ``ValueError`` if any two grid cells map to the same child seed
    (astronomically unlikely under the 64-bit avalanche, but the check is
    cheap and turns a silent statistics bug into a loud failure).
    """
    seeds: Dict[Tuple[Any, str], int] = {}
    for point in points:
        for variant in variants:
            seeds[(point, variant)] = derive_point_seed(master_seed, point, variant)
    values = list(seeds.values())
    if len(set(values)) != len(values):
        dupes = {s for s in values if values.count(s) > 1}
        cells = [k for k, s in seeds.items() if s in dupes]
        raise ValueError(f"per-point seed collision across grid cells: {cells}")
    return seeds


# ----------------------------------------------------------------------
# The fan-out itself
# ----------------------------------------------------------------------
def _fork_available() -> bool:
    return hasattr(os, "fork") and "fork" in multiprocessing.get_all_start_methods()


def _run_point(fn: Callable[[Any], Any], point: Any, footers: bool) -> Tuple[Any, Dict]:
    """Worker-side wrapper: run one point under a fresh telemetry session.

    The worker inherited the parent's ambient ``_ACTIVE`` telemetry stack
    via fork; pushing an innermost session with a *disabled* tracer keeps
    the point's instrumentation out of the parent's (shared, open) JSONL
    sink while still capturing metrics/phases/network notes for the merge.
    """
    tel = Telemetry(tracer=Tracer(enabled=False), show_phase_footers=footers)
    with telemetry_session(tel):
        result = fn(point)
    return result, tel.export_state()


def sweep_map(
    fn: Callable[[Any], Any],
    points: Sequence[Any],
    jobs: Optional[int] = None,
) -> List[Any]:
    """Apply ``fn`` to every point, in order, optionally across processes.

    Parameters
    ----------
    fn:
        The per-point measurement.  Must be a module-level callable (and
        ``points`` picklable) when ``jobs > 1``; workers are forked, so
        ``fn`` sees the parent's warm underlay cache copy-on-write.
    points:
        The sweep grid.  Results come back in this order regardless of
        completion order.
    jobs:
        Pool width; ``None`` uses the ambient :func:`sweep_session`.

    Worker telemetry is merged into the ambient parent session after all
    points complete (summed counters, extended histograms, attributed
    phases); at ``jobs=1`` the points record into the session directly.
    """
    points = list(points)
    jobs = resolve_jobs(jobs)
    if points:
        jobs = min(jobs, len(points))
    if jobs <= 1 or not points or not _fork_available():
        return [fn(p) for p in points]

    from concurrent.futures import ProcessPoolExecutor

    parent = active_telemetry()
    footers = parent.show_phase_footers if parent is not None else False
    ctx = multiprocessing.get_context("fork")
    try:
        pool = ProcessPoolExecutor(max_workers=jobs, mp_context=ctx)
    except OSError:
        # Resource limits / sandboxing: degrade to the in-process loop.
        return [fn(p) for p in points]
    with pool:
        futures = [pool.submit(_run_point, fn, p, footers) for p in points]
        results: List[Any] = []
        states: List[Dict] = []
        for fut in futures:  # submission order == point order
            result, state = fut.result()
            results.append(result)
            states.append(state)
    if parent is not None:
        for state in states:
            parent.merge_state(state)
    return results
