"""Mobility models: who moves, when, and where to.

The paper's evaluation treats movement abstractly (a mobile node changes
its network attachment point and must re-publish its location).  This
module provides the workload side: a Poisson-like per-node move process
driven by the simulation engine, and a one-shot "shuffle" used by the
batch experiments (move every mobile node once, then measure).
"""

from __future__ import annotations

import dataclasses
from typing import Callable, List, Optional

from ..sim.events import EventKind
from .bristle import BristleNetwork, MoveReport

__all__ = ["MobilityProcess", "shuffle_all_mobile"]


@dataclasses.dataclass
class MobilityProcess:
    """Exponential-interarrival movement for every mobile node.

    Parameters
    ----------
    net:
        The Bristle network whose mobile nodes move; moves are scheduled
        on its clock, ``net.engine``.
    rate:
        Per-node moves per unit virtual time (λ of the exponential
        inter-move distribution).
    on_move:
        Optional observer invoked with each :class:`MoveReport`.
    advertise:
        Whether moves trigger LDT advertisement (Bristle behaviour) or
        only the stationary-layer publish.
    """

    net: BristleNetwork
    rate: float
    on_move: Optional[Callable[[MoveReport], None]] = None
    advertise: bool = True
    moves_performed: int = dataclasses.field(default=0, init=False)
    _stopped: bool = dataclasses.field(default=False, init=False)

    def start(self) -> None:
        """Schedule the first move of every mobile node."""
        if self.rate <= 0:
            raise ValueError("rate must be positive")
        for key in self.net.mobile_keys:
            self._schedule_next(key)

    def stop(self) -> None:
        """Stop generating new moves (already-queued ones are skipped)."""
        self._stopped = True

    def _schedule_next(self, key: int) -> None:
        delay = float(self.net.rng.stream("mobility.timing").exponential(1.0 / self.rate))
        self.net.engine.schedule_in(
            delay,
            lambda k=key: self._fire(k),
            kind=EventKind.CONTROL,
            label=f"move:{key:#x}",
        )

    def _fire(self, key: int) -> None:
        if self._stopped or key not in self.net.nodes:
            return
        report = self.net.move(key, advertise=self.advertise)
        self.moves_performed += 1
        if self.on_move is not None:
            self.on_move(report)
        self._schedule_next(key)


def shuffle_all_mobile(
    net: BristleNetwork, *, advertise: bool = False, publish: bool = True
) -> List[MoveReport]:
    """Move every mobile node once to a fresh random attachment point.

    The batch experiments (Figure 7) use this to put the system in the
    "all caches cold" worst case before sampling routes.
    """
    reports = []
    for key in list(net.mobile_keys):
        reports.append(net.move(key, advertise=advertise, publish=publish))
    return reports
