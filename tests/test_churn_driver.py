"""Unit tests for the tests' own churn harness, ``tests/churn_driver.py``."""

import pytest

from repro.core import BristleConfig, BristleNetwork
from repro.core.storage import DataStore
from repro.workloads import ChurnEvent, ChurnEventType, ChurnSchedule

from .churn_driver import ChurnDriver


@pytest.fixture
def net():
    cfg = BristleConfig(seed=81, naming="scrambled")
    return BristleNetwork(cfg, num_stationary=30, num_mobile=20, router_count=100)


def fresh_key(net, start=3):
    k = start
    while k in net.nodes:
        k += 1
    return k


def make_schedule(events):
    return ChurnSchedule(events=list(events))


class TestDriver:
    def test_move_applied(self, net, engine):
        mk = net.mobile_keys[0]
        driver = ChurnDriver(
            net=net,
            engine=engine,
            schedule=make_schedule([ChurnEvent(1.0, ChurnEventType.MOVE, mk)]),
        )
        driver.start()
        engine.run()
        assert driver.applied[ChurnEventType.MOVE] == 1
        assert net.nodes[mk].moves == 1

    def test_join_uses_figure5_by_default(self, net, engine):
        k = fresh_key(net)
        driver = ChurnDriver(
            net=net,
            engine=engine,
            schedule=make_schedule([ChurnEvent(1.0, ChurnEventType.JOIN, k)]),
        )
        driver.start()
        engine.run()
        assert net.mobile_layer.is_member(k)
        assert driver.join_messages > 0

    def test_structural_join_mode(self, net, engine):
        k = fresh_key(net)
        driver = ChurnDriver(
            net=net,
            engine=engine,
            schedule=make_schedule([ChurnEvent(1.0, ChurnEventType.JOIN, k)]),
            use_figure5_join=False,
        )
        driver.start()
        engine.run()
        assert net.mobile_layer.is_member(k)
        assert driver.join_messages == 0

    def test_leave_with_store_handoff(self, net, engine):
        store = DataStore(net, replication=2)
        leaver = net.mobile_keys[0]
        # Find a key owned by the leaver so handoff must move something.
        owned = None
        for cand in range(0, 10**6, 97):
            if net.mobile_layer.owner_of(cand) == leaver:
                owned = cand
                break
        assert owned is not None
        store.put(owned, "keep-me")
        driver = ChurnDriver(
            net=net,
            engine=engine,
            schedule=make_schedule([ChurnEvent(1.0, ChurnEventType.LEAVE, leaver)]),
            store=store,
        )
        driver.start()
        engine.run()
        assert leaver not in net.nodes
        assert store.get(net.stationary_keys[0], owned).found

    def test_events_on_dead_hosts_skipped(self, net, engine):
        mk = net.mobile_keys[0]
        schedule = make_schedule(
            [
                ChurnEvent(1.0, ChurnEventType.LEAVE, mk),
                ChurnEvent(2.0, ChurnEventType.MOVE, mk),  # host already gone
                ChurnEvent(3.0, ChurnEventType.LEAVE, mk),  # double-leave
            ]
        )
        driver = ChurnDriver(net=net, engine=engine, schedule=schedule)
        driver.start()
        engine.run()
        assert driver.applied[ChurnEventType.LEAVE] == 1
        assert driver.skipped == 2

    def test_duplicate_join_skipped(self, net, engine):
        k = fresh_key(net)
        schedule = make_schedule(
            [
                ChurnEvent(1.0, ChurnEventType.JOIN, k),
                ChurnEvent(2.0, ChurnEventType.JOIN, k),
            ]
        )
        driver = ChurnDriver(net=net, engine=engine, schedule=schedule)
        driver.start()
        engine.run()
        assert driver.applied[ChurnEventType.JOIN] == 1
        assert driver.skipped == 1

    def test_observer_invoked(self, net, engine):
        seen = []
        mk = net.mobile_keys[1]
        driver = ChurnDriver(
            net=net,
            engine=engine,
            schedule=make_schedule([ChurnEvent(1.0, ChurnEventType.MOVE, mk)]),
            on_event=seen.append,
        )
        driver.start()
        engine.run()
        assert len(seen) == 1
        assert seen[0].host == mk

    def test_events_applied_in_time_order(self, net, engine):
        order = []
        k = fresh_key(net)
        mk = net.mobile_keys[0]
        schedule = make_schedule(
            [
                ChurnEvent(5.0, ChurnEventType.MOVE, mk),
                ChurnEvent(1.0, ChurnEventType.JOIN, k),
            ]
        )
        driver = ChurnDriver(
            net=net, engine=engine, schedule=schedule,
            on_event=lambda e: order.append(e.kind),
        )
        driver.start()
        engine.run()
        assert order == [ChurnEventType.JOIN, ChurnEventType.MOVE]
