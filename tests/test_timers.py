"""Tests for tests/timers.py — leases and timer wheels."""

from .timers import Lease, TimerWheel


class TestLease:
    def test_valid_within_duration(self):
        lease = Lease(duration=10.0, granted_at=5.0)
        assert lease.valid_at(5.0)
        assert lease.valid_at(15.0)
        assert not lease.valid_at(15.0001)

    def test_refresh_extends(self):
        lease = Lease(duration=10.0)
        assert not lease.valid_at(20.0)
        lease.refresh(now=18.0)
        assert lease.valid_at(20.0)
        assert lease.expires_at == 28.0

    def test_refresh_with_new_duration(self):
        lease = Lease(duration=10.0)
        lease.refresh(now=0.0, duration=2.0)
        assert lease.expires_at == 2.0

    def test_remaining(self):
        lease = Lease(duration=10.0, granted_at=0.0)
        assert lease.remaining(4.0) == 6.0
        assert lease.remaining(12.0) == -2.0


class TestTimerWheel:
    def test_periodic_via_wheel(self, engine):
        wheel = TimerWheel(engine)
        ticks = []
        wheel.every(1.0, lambda: ticks.append(engine.now))
        engine.run(until=3.5)
        assert ticks == [1.0, 2.0, 3.0]

    def test_one_shot(self, engine):
        wheel = TimerWheel(engine)
        out = []
        wheel.after(2.0, lambda: out.append(engine.now))
        engine.run()
        assert out == [2.0]

    def test_cancel_all_silences_everything(self, engine):
        wheel = TimerWheel(engine)
        out = []
        wheel.every(1.0, lambda: out.append("p"))
        wheel.after(0.5, lambda: out.append("o"))
        wheel.cancel_all()
        engine.run(until=5.0)
        assert out == []

    def test_cancel_all_midway(self, engine):
        wheel = TimerWheel(engine)
        out = []
        wheel.every(1.0, lambda: out.append(engine.now))
        engine.schedule(2.5, wheel.cancel_all)
        engine.run(until=10.0)
        assert out == [1.0, 2.0]

    def test_individual_cancel(self, engine):
        wheel = TimerWheel(engine)
        a, b = [], []
        cancel_a = wheel.every(1.0, lambda: a.append(1))
        wheel.every(1.0, lambda: b.append(1))
        cancel_a()
        engine.run(until=3.0)
        assert a == []
        assert len(b) == 3

    def test_active_periodic_count(self, engine):
        wheel = TimerWheel(engine)
        wheel.every(1.0, lambda: None)
        wheel.every(2.0, lambda: None)
        assert wheel.active_periodic == 2
