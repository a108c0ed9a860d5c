"""Prebuilt underlay bundles shared across experiment points.

The paper's sweeps (Fig 7/9, Table 1, the ext_* drivers) evaluate many
*independent* points that frequently share the same underlay: identical
``(seed, router_count)`` means an identical transit-stub topology and an
identical Dijkstra oracle.  Rebuilding (and re-warming) that underlay for
every point is pure waste — CFS/DHash-style measurement harnesses amortise
topology construction across trials for the same reason.

This module provides three pieces (see docs/performance.md):

* :class:`UnderlayBundle` — an immutable ``(topology, oracle)`` pair plus
  the ``(seed, router_count)`` key it was derived from.  Placement is
  deliberately *not* part of the bundle: :class:`~repro.net.placement.Placement`
  carries mutable per-network attachment state, so every
  :class:`~repro.core.bristle.BristleNetwork` builds its own placement
  from its own RNG (which keeps results bit-identical with the unshared
  path).
* :func:`build_underlay` — builds a bundle through exactly the same
  ``generate_transit_stub(params_for_router_count(...), RngStreams(seed))``
  derivation the network constructor uses inline, so a cached bundle and
  an inline build are indistinguishable byte-for-byte.
* :class:`UnderlayCache` — a small LRU keyed on ``(seed, router_count)``
  with hit/miss/build observability, plus a process-wide instance
  (:func:`shared_underlay_cache`).  Fork-based sweep workers inherit the
  warm cache copy-on-write.
"""

from __future__ import annotations

import dataclasses
import threading
from collections import OrderedDict
from typing import Dict, Optional, Tuple

from ..sim.rng import RngStreams
from .shortest_path import PathOracle
from .transit_stub import (
    TransitStubTopology,
    generate_transit_stub,
    params_for_router_count,
)

__all__ = [
    "UnderlayBundle",
    "build_underlay",
    "UnderlayCache",
    "shared_underlay_cache",
    "cache_stats_delta",
]


@dataclasses.dataclass(frozen=True)
class UnderlayBundle:
    """A prebuilt underlay: frozen topology + shared path oracle.

    The oracle is shared by every network built on the bundle, so its
    Dijkstra row cache stays warm across an entire sweep; per-point cache
    accounting must therefore use :func:`cache_stats_delta` rather than
    raw :meth:`~repro.net.shortest_path.PathOracle.cache_stats` snapshots.
    """

    seed: int
    router_count: int
    topology: TransitStubTopology
    oracle: PathOracle

    @property
    def key(self) -> Tuple[int, int]:
        """The cache key this bundle was derived from."""
        return (self.seed, self.router_count)


def build_underlay(seed: int, router_count: int) -> UnderlayBundle:
    """Build a bundle via the network constructor's own derivation.

    Uses ``RngStreams(seed)`` named streams, so the resulting topology is
    identical to what ``BristleNetwork(config=BristleConfig(seed=seed),
    router_count=router_count)`` would generate inline — named streams are
    independent of draw order, making the underlay a pure function of
    ``(seed, router_count)``.
    """
    rng = RngStreams(seed)
    topology = generate_transit_stub(params_for_router_count(router_count), rng)
    return UnderlayBundle(
        seed=seed,
        router_count=router_count,
        topology=topology,
        oracle=PathOracle(topology.graph, domain_of=topology.router_domain),
    )


class UnderlayCache:
    """LRU cache of :class:`UnderlayBundle` keyed on ``(seed, router_count)``.

    Thread-safe; the bound keeps memory predictable when a sweep spans
    many distinct router counts (ext_scaling builds one underlay per
    population size).  Stats mirror the oracle's cache observability.
    """

    def __init__(self, max_entries: int = 8) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self._bundles: "OrderedDict[Tuple[int, int], UnderlayBundle]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, seed: int, router_count: int) -> UnderlayBundle:
        """The cached bundle for ``(seed, router_count)``, building on miss."""
        key = (seed, router_count)
        with self._lock:
            bundle = self._bundles.get(key)
            if bundle is not None:
                self.hits += 1
                self._bundles.move_to_end(key)
                return bundle
            self.misses += 1
        # Build outside the lock: generation + graph freeze is the slow part.
        bundle = build_underlay(seed, router_count)
        with self._lock:
            if key not in self._bundles and len(self._bundles) >= self.max_entries:
                self._bundles.popitem(last=False)
                self.evictions += 1
            self._bundles[key] = bundle
            self._bundles.move_to_end(key)
        return bundle

    def __len__(self) -> int:
        return len(self._bundles)

    def clear(self) -> None:
        """Drop every cached bundle (counters are kept)."""
        with self._lock:
            self._bundles.clear()

    def stats(self) -> Dict[str, float]:
        """Snapshot of the cache counters (``hit_rate`` NaN before use)."""
        lookups = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "entries": len(self._bundles),
            "hit_rate": self.hits / lookups if lookups else float("nan"),
        }


# Constructed eagerly (an empty OrderedDict plus a lock — no underlays
# are built until first use), so no code path ever rebinds the module
# global: sweep workers inherit the parent's warm cache on fork and any
# miss-side inserts they make stay local by design (BRS004 flags any
# ``global`` rebinding in the package, which a worker could reach).
_SHARED: UnderlayCache = UnderlayCache()


def shared_underlay_cache() -> UnderlayCache:
    """The process-wide underlay cache.

    Sweep drivers fetch bundles here so that one run's points — and, on
    fork platforms, the pool workers inheriting the parent's memory —
    share underlay construction.
    """
    return _SHARED


#: Counters that accumulate monotonically and therefore difference cleanly.
_DELTA_KEYS = (
    "hits", "misses", "evictions", "dijkstra_runs", "batch_calls", "segment_fills",
)


def cache_stats_delta(
    before: Dict[str, float], after: Dict[str, float]
) -> Dict[str, float]:
    """Per-point oracle stats when the oracle outlives the point.

    Subtracts the monotone counters, recomputes ``hit_rate`` over the
    window, and reports the *current* ``cached_sources`` (a gauge, not a
    counter).  Drivers sum these deltas across points; the totals then
    match what per-point oracles would have reported.
    """
    delta: Dict[str, float] = {
        k: after.get(k, 0) - before.get(k, 0) for k in _DELTA_KEYS
    }
    lookups = delta["hits"] + delta["misses"]
    delta["cached_sources"] = after.get("cached_sources", 0)
    delta["hit_rate"] = delta["hits"] / lookups if lookups else float("nan")
    return delta
