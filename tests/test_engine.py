"""Tests for repro.sim.engine — the discrete-event scheduler."""

import math

import pytest

from repro.sim import Engine, EventKind, SimulationError


class TestScheduling:
    def test_fires_in_time_order(self, engine):
        out = []
        engine.schedule(3.0, lambda: out.append(3))
        engine.schedule(1.0, lambda: out.append(1))
        engine.schedule(2.0, lambda: out.append(2))
        engine.run()
        assert out == [1, 2, 3]

    def test_fifo_within_same_time(self, engine):
        out = []
        for i in range(10):
            engine.schedule(5.0, lambda i=i: out.append(i))
        engine.run()
        assert out == list(range(10))

    def test_priority_within_same_time(self, engine):
        out = []
        engine.schedule(1.0, lambda: out.append("msg"), kind=EventKind.MESSAGE)
        engine.schedule(1.0, lambda: out.append("ctl"), kind=EventKind.CONTROL)
        engine.schedule(1.0, lambda: out.append("tmr"), kind=EventKind.TIMER)
        engine.run()
        assert out == ["ctl", "tmr", "msg"]

    def test_clock_advances_to_event_time(self, engine):
        seen = []
        engine.schedule(2.5, lambda: seen.append(engine.now))
        engine.run()
        assert seen == [2.5]
        assert engine.now == 2.5

    def test_schedule_in_past_raises(self, engine):
        engine.schedule(5.0, lambda: None)
        engine.run()
        with pytest.raises(SimulationError):
            engine.schedule(1.0, lambda: None)
        # NaN compares false against the clock; ±inf never falls due.
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(SimulationError):
                engine.schedule(bad, lambda: None)
        assert engine.pending == 0

    def test_schedule_at_now_allowed(self, engine):
        out = []
        engine.schedule(1.0, lambda: engine.schedule(engine.now, lambda: out.append("nested")))
        engine.run()
        assert out == ["nested"]

    def test_negative_delay_raises(self, engine):
        for bad in (-0.1, math.nan, math.inf, -math.inf):
            with pytest.raises(SimulationError):
                engine.schedule_in(bad, lambda: None)
        assert engine.pending == 0

    def test_cancel_skips_event(self, engine):
        out = []
        ev = engine.schedule(1.0, lambda: out.append("a"))
        engine.schedule(2.0, lambda: out.append("b"))
        ev.cancel()
        engine.run()
        assert out == ["b"]

    def test_dispatched_counts_only_fired(self, engine):
        ev = engine.schedule(1.0, lambda: None)
        engine.schedule(2.0, lambda: None)
        ev.cancel()
        engine.run()
        assert engine.dispatched == 1


class TestRun:
    def test_run_until_leaves_future_events(self, engine):
        out = []
        engine.schedule(1.0, lambda: out.append(1))
        engine.schedule(5.0, lambda: out.append(5))
        engine.run(until=3.0)
        assert out == [1]
        assert engine.now == 3.0
        assert engine.pending == 1
        engine.run()
        assert out == [1, 5]

    def test_bounded_runs_compose(self, engine):
        out = []
        for t in (1.0, 2.0, 3.0, 4.0):
            engine.schedule(t, lambda t=t: out.append(t))
        engine.run(until=2.0)
        engine.run(until=4.0)
        assert out == [1.0, 2.0, 3.0, 4.0]

    def test_stop_halts_run(self, engine):
        out = []
        engine.schedule(1.0, lambda: (out.append(1), engine.stop()))
        engine.schedule(2.0, lambda: out.append(2))
        engine.run()
        assert out == [1]
        assert engine.pending == 1

    def test_max_events_guard(self):
        engine = Engine(max_events=50)

        def reschedule():
            engine.schedule_in(1.0, reschedule)

        engine.schedule_in(1.0, reschedule)
        with pytest.raises(SimulationError, match="max_events"):
            engine.run()

    def test_step_single_event(self, engine):
        out = []
        engine.schedule(1.0, lambda: out.append(1))
        engine.schedule(2.0, lambda: out.append(2))
        assert engine.step() is True
        assert out == [1]
        assert engine.step() is True
        assert engine.step() is False

    def test_clear_drops_pending(self, engine):
        engine.schedule(1.0, lambda: None)
        engine.clear()
        assert engine.pending == 0
        assert engine.run() == 0.0

    def test_run_until_non_finite_raises(self, engine):
        # NaN compares false against every event time: such a bound would
        # drain the queue and leave the clock wherever the last event was.
        out = []
        engine.schedule(1.0, lambda: out.append(1))
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(SimulationError, match="finite"):
                engine.run(until=bad)
        assert out == [] and engine.now == 0.0 and engine.pending == 1

    def test_reentrant_run_rejected(self, engine):
        def inner():
            engine.run()

        engine.schedule(1.0, inner)
        with pytest.raises(SimulationError, match="re-entrant"):
            engine.run()


class TestPeriodic:
    def test_schedule_every_fires_repeatedly(self, engine):
        ticks = []
        engine.schedule_every(1.0, lambda: ticks.append(engine.now))
        engine.run(until=5.5)
        assert ticks == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_first_in_override(self, engine):
        ticks = []
        engine.schedule_every(2.0, lambda: ticks.append(engine.now), first_in=0.5)
        engine.run(until=5.0)
        assert ticks == [0.5, 2.5, 4.5]

    def test_cancel_stops_future_firings(self, engine):
        ticks = []
        cancel = engine.schedule_every(1.0, lambda: ticks.append(engine.now))
        engine.schedule(2.5, cancel)
        engine.run(until=10.0)
        assert ticks == [1.0, 2.0]

    def test_cancel_from_inside_callback(self, engine):
        ticks = []
        state = {}

        def tick():
            ticks.append(engine.now)
            if len(ticks) == 3:
                state["cancel"]()

        state["cancel"] = engine.schedule_every(1.0, tick)
        engine.run(until=10.0)
        assert ticks == [1.0, 2.0, 3.0]

    def test_non_positive_period_raises(self, engine):
        for bad in (0.0, -1.0, math.nan, math.inf, -math.inf):
            with pytest.raises(SimulationError):
                engine.schedule_every(bad, lambda: None)
        assert engine.pending == 0
