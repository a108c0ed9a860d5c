"""Failure detection: periodic neighbour monitoring (§2.3.2).

"For reliability, each node periodically monitors its connectivity to
the other O(log N) nodes in the system" — every member heartbeats its
overlay neighbours each period; a peer that misses ``miss_threshold``
consecutive heartbeats is *suspected* and reported, letting higher
layers (the location directory, the data store, the registries) shed the
failed node's state.

The detector works against ground truth held by the caller: failing a
node makes it stop answering.  Detection latency is therefore bounded by
``miss_threshold × period`` — asserted by the tests — and the message
budget per period is exactly the sum of neighbour-list sizes
(``O(N log N)`` for the log-state overlays, ``O(N·d)`` for CAN).
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..sim.metrics import MetricsRegistry
from .bristle import BristleNetwork

__all__ = ["FailureDetector", "Suspicion"]


@dataclasses.dataclass(frozen=True)
class Suspicion:
    """One detection event: who suspected whom, and when."""

    monitor: int
    suspect: int
    at: float
    failed_at: float

    @property
    def detection_delay(self) -> float:
        return self.at - self.failed_at


class FailureDetector:
    """Heartbeat-based neighbour monitoring over the mobile layer.

    Parameters
    ----------
    net:
        The network whose mobile-layer neighbour relation defines who
        monitors whom; heartbeat rounds run on its clock, ``net.engine``.
    period:
        Time between heartbeat rounds.
    miss_threshold:
        Consecutive missed heartbeats before suspicion (≥ 1).
    on_suspect:
        Optional callback invoked with each :class:`Suspicion` (fired
        once per (monitor, suspect) pair).
    evict_from_overlay:
        When true, the first detection of a failed node also removes it
        from the mobile layer through the overlay's incremental
        ``remove_node`` path, so the surviving members' routing state is
        repaired in place (counted by ``evictions``) instead of pointing
        at a dead peer until the next full rebuild.
    """

    def __init__(
        self,
        net: BristleNetwork,
        *,
        period: float = 10.0,
        miss_threshold: int = 2,
        on_suspect: Optional[Callable[[Suspicion], None]] = None,
        evict_from_overlay: bool = False,
    ) -> None:
        if period <= 0:
            raise ValueError("period must be positive")
        if miss_threshold < 1:
            raise ValueError("miss_threshold must be >= 1")
        self.net = net
        self.period = period
        self.miss_threshold = miss_threshold
        self.on_suspect = on_suspect
        self.evict_from_overlay = evict_from_overlay
        self.metrics = MetricsRegistry()
        self._failed: Dict[int, float] = {}  # node → failure time
        self._misses: Dict[Tuple[int, int], int] = {}
        self._suspected: Set[Tuple[int, int]] = set()
        self._evicted: Set[int] = set()
        self.suspicions: List[Suspicion] = []
        self._cancel: Optional[Callable[[], None]] = None

    # ------------------------------------------------------------------
    # Ground truth
    # ------------------------------------------------------------------
    def fail(self, node: int) -> None:
        """Node stops answering heartbeats from now on."""
        if node not in self.net.nodes:
            raise KeyError(f"{node} is not a member")
        self._failed.setdefault(node, self.net.now)

    def recover(self, node: int) -> None:
        """Node answers again; standing suspicions against it clear."""
        self._failed.pop(node, None)
        self._evicted.discard(node)
        for pair in [p for p in self._suspected if p[1] == node]:
            self._suspected.discard(pair)
            self._misses.pop(pair, None)

    def is_failed(self, node: int) -> bool:
        """Ground truth: is ``node`` currently failed?"""
        return node in self._failed

    # ------------------------------------------------------------------
    # Monitoring
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin periodic heartbeat rounds."""
        if self._cancel is not None:
            raise RuntimeError("detector already started")
        self._cancel = self.net.engine.schedule_every(
            self.period, self._round, label="failure-detector"
        )

    def stop(self) -> None:
        """Halt heartbeat rounds."""
        if self._cancel is not None:
            self._cancel()
            self._cancel = None

    def _round(self) -> None:
        overlay = self.net.mobile_layer
        now = self.net.now
        newly_detected: List[int] = []
        for key in overlay.keys:
            monitor = int(key)
            if monitor in self._failed:
                continue  # failed nodes send no heartbeats
            for peer in overlay.neighbors_of(monitor):
                self.metrics.counter("heartbeats").inc()
                pair = (monitor, peer)
                if peer in self._failed:
                    misses = self._misses.get(pair, 0) + 1
                    self._misses[pair] = misses
                    if misses >= self.miss_threshold and pair not in self._suspected:
                        self._suspected.add(pair)
                        suspicion = Suspicion(
                            monitor=monitor,
                            suspect=peer,
                            at=now,
                            failed_at=self._failed[peer],
                        )
                        self.suspicions.append(suspicion)
                        self.metrics.histogram("detection_delay").observe(
                            suspicion.detection_delay
                        )
                        if self.on_suspect is not None:
                            self.on_suspect(suspicion)
                        newly_detected.append(peer)
                else:
                    self._misses.pop(pair, None)
        if self.evict_from_overlay and newly_detected:
            # Applied after the heartbeat sweep so eviction never mutates
            # the membership array mid-iteration.  Each failed node is
            # evicted once, through the incremental repair path.
            for peer in newly_detected:
                if peer in self._evicted or not overlay.is_member(peer):
                    continue
                overlay.remove_node(peer)
                self._evicted.add(peer)
                self.metrics.counter("evictions").inc()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def suspects_of(self, monitor: int) -> List[int]:
        """Peers ``monitor`` currently suspects."""
        return sorted(s for m, s in self._suspected if m == monitor)

    def detected_by_anyone(self, node: int) -> bool:
        """True once at least one monitor suspects ``node``."""
        return any(s == node for _, s in self._suspected)

    def detection_coverage(self, node: int) -> float:
        """Fraction of ``node``'s monitors that suspect it."""
        overlay = self.net.mobile_layer
        monitors = [
            int(k)
            for k in overlay.keys
            if node in overlay.neighbors_of(int(k)) and int(k) not in self._failed
        ]
        if not monitors:
            return 0.0
        return sum(1 for m in monitors if (m, node) in self._suspected) / len(monitors)
