"""Engine-driven churn: replay a :class:`ChurnSchedule` against a live
Bristle network.

The driver turns the declarative schedule (joins / leaves / moves with
timestamps) into engine events that exercise the full protocol stack:
joins run the Figure-5 protocol, leaves and joins trigger data-store
handoff, moves publish and (optionally) advertise.  The integration
tests use it to assert the system's invariants hold under arbitrary
interleavings; nothing in ``src/`` ever did, so since issue 24 it lives
with them (ROADMAP item 6).
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Optional

from repro.core.bristle import BristleNetwork
from repro.core.join import figure5_join
from repro.core.storage import DataStore
from repro.sim.engine import Engine
from repro.sim.events import EventKind
from repro.workloads.churn import ChurnEvent, ChurnEventType, ChurnSchedule

__all__ = ["ChurnDriver"]


@dataclasses.dataclass
class ChurnDriver:
    """Applies a churn schedule to a network on the event engine.

    Parameters
    ----------
    net / engine:
        The live system.
    schedule:
        The churn to replay (times are absolute virtual times).
    store:
        Optional data store; joins/leaves then trigger handoff so stored
        items follow ownership.
    use_figure5_join:
        Run the message-accounted Fig-5 protocol for joins (default) or
        the bare structural join.
    advertise_moves:
        Whether moves advertise through LDTs.
    on_event:
        Optional observer called with each applied :class:`ChurnEvent`.
    """

    net: BristleNetwork
    engine: Engine
    schedule: ChurnSchedule
    store: Optional[DataStore] = None
    use_figure5_join: bool = True
    advertise_moves: bool = False
    on_event: Optional[Callable[[ChurnEvent], None]] = None

    applied: Dict[ChurnEventType, int] = dataclasses.field(
        default_factory=lambda: {k: 0 for k in ChurnEventType}
    )
    skipped: int = dataclasses.field(default=0)
    join_messages: int = dataclasses.field(default=0)
    handoff_items: int = dataclasses.field(default=0)

    def start(self) -> None:
        """Schedule every churn event (call once, then run the engine)."""
        for event in self.schedule:
            self.engine.schedule(
                event.time,
                lambda e=event: self._apply(e),
                kind=EventKind.CONTROL,
                label=f"churn:{event.kind.value}:{event.host}",
            )

    # ------------------------------------------------------------------
    def _apply(self, event: ChurnEvent) -> None:
        self.net.now = self.engine.now
        if event.kind is ChurnEventType.MOVE:
            if not self._is_live_mobile(event.host):
                self.skipped += 1
                return
            self.net.move(event.host, advertise=self.advertise_moves)
        elif event.kind is ChurnEventType.LEAVE:
            if not self._is_live_mobile(event.host):
                self.skipped += 1
                return
            self.net.leave_mobile_node(event.host)
            if self.store is not None:
                self.handoff_items += self.store.handoff_before_leave(event.host)
        elif event.kind is ChurnEventType.JOIN:
            if event.host in self.net.nodes:
                self.skipped += 1
                return
            if self.use_figure5_join:
                report = figure5_join(self.net, event.host)
                self.join_messages += report.messages
            else:
                self.net.join_mobile_node(event.host)
            if self.store is not None:
                self.handoff_items += self.store.handoff_after_join(event.host)
        else:  # pragma: no cover - enum is closed
            raise ValueError(f"unknown churn kind {event.kind}")
        self.applied[event.kind] += 1
        if self.on_event is not None:
            self.on_event(event)

    def _is_live_mobile(self, host: int) -> bool:
        node = self.net.nodes.get(host)
        return node is not None and node.mobile

    @property
    def total_applied(self) -> int:
        return sum(self.applied.values())
