"""A deterministic discrete-event simulation engine.

The engine is a classic calendar-queue loop: a binary heap of
:class:`~repro.sim.events.Event` objects ordered by
``(time, priority, sequence)``.  It is deliberately minimal — nodes and
protocols schedule callbacks; the engine only advances virtual time and
dispatches.  Determinism comes from the explicit sequence-number tie-break
and from all randomness living in :class:`~repro.sim.rng.RngStreams`.

Typical use::

    from repro.sim import Engine

    eng = Engine()
    eng.schedule(1.5, lambda: print("fires at t=1.5"))
    eng.run()

The engine also exposes *processes* in a lightweight form: a periodic task
is just a callback that reschedules itself via :meth:`Engine.schedule_every`.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, List, Optional, Tuple

from .events import Event, EventKind, Priority, kind_default_priority

__all__ = ["Engine", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised for invalid engine operations (e.g. scheduling in the past)."""


class Engine:
    """Discrete-event scheduler with a virtual clock.

    Parameters
    ----------
    max_events:
        Safety valve: :meth:`run` raises :class:`SimulationError` after
        dispatching this many events, catching accidental infinite
        self-rescheduling loops.  ``None`` disables the check.
    """

    def __init__(self, max_events: Optional[int] = None) -> None:
        self._now = 0.0
        self._heap: List[Tuple[Tuple[float, int, int], Event]] = []
        self._seq = 0
        self._dispatched = 0
        self._running = False
        self._stopped = False
        self.max_events = max_events

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    @property
    def dispatched(self) -> int:
        """Number of events dispatched so far."""
        return self._dispatched

    @property
    def pending(self) -> int:
        """Number of events still in the queue (including cancelled ones)."""
        return len(self._heap)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        time: float,
        callback: Callable[[], Any],
        *,
        kind: EventKind = EventKind.GENERIC,
        priority: Optional[Priority] = None,
        label: str = "",
    ) -> Event:
        """Schedule ``callback`` to fire at absolute virtual ``time``.

        Returns the :class:`Event`, whose :meth:`~Event.cancel` method
        removes it (lazily) from the queue.  Scheduling strictly in the past
        or at a non-finite time raises :class:`SimulationError`; scheduling
        *at* the current time is allowed and fires after
        currently-dispatching same-time events.
        """
        # Phrased so that NaN fails it (every comparison with NaN is false).
        if not self._now <= time < math.inf:
            raise SimulationError(
                f"cannot schedule event at t={time}: it must be finite and "
                f"not before current time t={self._now}"
            )
        if priority is None:
            priority = kind_default_priority(kind)
        ev = Event(time=float(time), callback=callback, kind=kind, priority=priority, label=label)
        ev.seq = self._seq
        self._seq += 1
        heapq.heappush(self._heap, (ev.sort_key(), ev))
        return ev

    def schedule_in(
        self,
        delay: float,
        callback: Callable[[], Any],
        *,
        kind: EventKind = EventKind.GENERIC,
        priority: Optional[Priority] = None,
        label: str = "",
    ) -> Event:
        """Schedule ``callback`` to fire ``delay`` time units from now."""
        if not 0 <= delay < math.inf:
            raise SimulationError(f"delay must be finite and non-negative, got {delay}")
        return self.schedule(self._now + delay, callback, kind=kind, priority=priority, label=label)

    def schedule_every(
        self,
        period: float,
        callback: Callable[[], Any],
        *,
        first_in: Optional[float] = None,
        kind: EventKind = EventKind.TIMER,
        label: str = "",
    ) -> Callable[[], None]:
        """Schedule ``callback`` periodically every ``period`` units.

        Returns a zero-argument *cancel function*; calling it stops future
        firings.  The first firing happens after ``first_in`` (defaults to
        ``period``).
        """
        if not 0 < period < math.inf:
            raise SimulationError(f"period must be finite and positive, got {period}")
        state = {"cancelled": False, "event": None}

        def fire() -> None:
            if state["cancelled"]:
                return
            callback()
            if not state["cancelled"]:
                state["event"] = self.schedule_in(period, fire, kind=kind, label=label)

        state["event"] = self.schedule_in(
            period if first_in is None else first_in, fire, kind=kind, label=label
        )

        def cancel() -> None:
            state["cancelled"] = True
            ev = state["event"]
            if ev is not None:
                ev.cancel()

        return cancel

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Dispatch the single next non-cancelled event.

        Returns ``True`` if an event fired, ``False`` if the queue is empty.
        """
        while self._heap:
            _, ev = heapq.heappop(self._heap)
            if ev.cancelled:
                continue
            self._now = ev.time
            self._dispatched += 1
            ev.callback()
            return True
        return False

    def run(self, until: Optional[float] = None) -> float:
        """Run until the queue drains or virtual time exceeds ``until``.

        Returns the final virtual time.  When ``until`` is given, events
        with ``time > until`` remain queued and the clock is advanced to
        ``until`` exactly (so successive bounded runs compose).  A
        non-finite ``until`` raises :class:`SimulationError`.
        """
        if until is not None and not math.isfinite(until):
            raise SimulationError(f"until must be finite, got {until}")
        if self._running:
            raise SimulationError("engine is already running (re-entrant run())")
        self._running = True
        self._stopped = False
        try:
            while self._heap and not self._stopped:
                key, ev = self._heap[0]
                if ev.cancelled:
                    heapq.heappop(self._heap)
                    continue
                if until is not None and ev.time > until:
                    break
                heapq.heappop(self._heap)
                self._now = ev.time
                self._dispatched += 1
                if self.max_events is not None and self._dispatched > self.max_events:
                    raise SimulationError(
                        f"exceeded max_events={self.max_events}; "
                        "likely a runaway self-rescheduling loop"
                    )
                ev.callback()
        finally:
            self._running = False
        if until is not None and self._now < until:
            self._now = until
        return self._now

    def stop(self) -> None:
        """Request that :meth:`run` return after the current event."""
        self._stopped = True

    def clear(self) -> None:
        """Drop all pending events (the clock is left where it is)."""
        self._heap.clear()
