"""Lease and timer helpers built on the simulation engine (test support).

Bristle's state management is lease-based (§2.3.2): every state-pair cached
in the mobile layer carries a time-to-live, and both ends of a registration
periodically refresh it ("early binding").  :class:`Lease` captures that
contract; :class:`TimerWheel` groups per-node periodic tasks so a node that
leaves the system can cancel all of its timers at once.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, List, Optional

from repro.sim.engine import Engine
from repro.sim.events import Event, EventKind

__all__ = ["Lease", "TimerWheel"]


@dataclasses.dataclass
class Lease:
    """A time-bounded contract, renewable by refresh.

    Attributes
    ----------
    duration:
        Validity period granted by each refresh.
    granted_at:
        Virtual time of the most recent refresh.
    """

    duration: float
    granted_at: float = 0.0

    @property
    def expires_at(self) -> float:
        """Virtual time at which the lease lapses."""
        return self.granted_at + self.duration

    def valid_at(self, now: float) -> bool:
        """True if the lease is still in force at time ``now``."""
        return now <= self.expires_at

    def refresh(self, now: float, duration: Optional[float] = None) -> None:
        """Renew the lease starting at ``now``; optionally change duration."""
        self.granted_at = now
        if duration is not None:
            self.duration = duration

    def remaining(self, now: float) -> float:
        """Time left before expiry (negative once lapsed)."""
        return self.expires_at - now


class TimerWheel:
    """Per-owner bundle of engine timers with bulk cancellation.

    A node registers its periodic refresh tasks and one-shot timeouts here;
    when the node leaves (or a test tears the node down) a single
    :meth:`cancel_all` silences everything it scheduled.
    """

    def __init__(self, engine: Engine) -> None:
        self._engine = engine
        self._cancels: List[Callable[[], None]] = []
        self._oneshots: List[Event] = []

    def every(self, period: float, callback: Callable[[], None], *, label: str = "") -> Callable[[], None]:
        """Register a periodic task; returns its individual cancel function."""
        cancel = self._engine.schedule_every(period, callback, label=label)
        self._cancels.append(cancel)
        return cancel

    def after(self, delay: float, callback: Callable[[], None], *, label: str = "") -> Event:
        """Register a one-shot timer firing ``delay`` from now."""
        ev = self._engine.schedule_in(delay, callback, kind=EventKind.TIMER, label=label)
        self._oneshots.append(ev)
        return ev

    def cancel_all(self) -> None:
        """Cancel every timer registered through this wheel."""
        for cancel in self._cancels:
            cancel()
        self._cancels.clear()
        for ev in self._oneshots:
            ev.cancel()
        self._oneshots.clear()

    @property
    def active_periodic(self) -> int:
        """Number of periodic tasks registered (including already-cancelled)."""
        return len(self._cancels)
