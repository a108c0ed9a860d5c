"""Tests for repro.overlay.state — state-pairs and state tables."""


import pytest

from repro.net import NetworkAddress
from repro.overlay import StatePair, StateTable


@pytest.fixture
def table(space):
    return StateTable(space, owner_key=1000)


ADDR = NetworkAddress(router=1, port=1)


class TestStatePair:
    def test_fresh_within_ttl(self):
        p = StatePair(key=5, addr=ADDR, ttl=10.0, refreshed_at=0.0)
        assert p.is_fresh(10.0)
        assert not p.is_fresh(10.1)

    def test_infinite_ttl(self):
        p = StatePair(key=5, addr=ADDR)
        assert p.is_fresh(1e18)

    def test_resolved_requires_addr_and_freshness(self):
        p = StatePair(key=5, addr=None, ttl=10.0)
        assert not p.is_resolved(0.0)
        p.refresh(0.0, addr=ADDR)
        assert p.is_resolved(5.0)
        assert not p.is_resolved(11.0)

    def test_invalidate_clears_addr(self):
        p = StatePair(key=5, addr=ADDR)
        p.invalidate()
        assert p.addr is None

    def test_refresh_updates_fields(self):
        p = StatePair(key=5, addr=None, ttl=10.0)
        p.refresh(7.0, addr=ADDR, ttl=3.0)
        assert p.refreshed_at == 7.0
        assert p.ttl == 3.0
        assert p.expires_at == 10.0


class TestStateTableMutation:
    def test_insert_and_get(self, table):
        table.insert(StatePair(key=5, addr=ADDR))
        assert 5 in table
        assert table.get(5).addr == ADDR

    def test_self_entry_rejected(self, table):
        with pytest.raises(ValueError):
            table.insert(StatePair(key=1000))

    def test_merge_keeps_fresher(self, table):
        table.insert(StatePair(key=5, addr=None, refreshed_at=1.0, ttl=10.0))
        table.insert(StatePair(key=5, addr=ADDR, refreshed_at=2.0, ttl=10.0))
        assert table.get(5).addr == ADDR
        assert table.get(5).refreshed_at == 2.0
        assert len(table) == 1

    def test_merge_ignores_staler(self, table):
        table.insert(StatePair(key=5, addr=ADDR, refreshed_at=2.0, ttl=10.0))
        table.insert(StatePair(key=5, addr=None, refreshed_at=1.0, ttl=10.0))
        assert table.get(5).addr == ADDR

    def test_renew_creates_then_renews_in_place(self, table):
        created = table.renew(5, ADDR, now=3.0, ttl=10.0)
        assert (created.addr, created.refreshed_at, created.ttl) == (ADDR, 3.0, 10.0)
        created.capacity = 7.0
        moved = NetworkAddress(router=2, port=1)
        assert table.renew(5, moved, now=8.0, ttl=20.0) is created
        assert (created.addr, created.expires_at) == (moved, 28.0)
        assert created.capacity == 7.0  # unlike a merge, a renewal keeps it
        with pytest.raises(ValueError):
            table.renew(1000, ADDR, now=0.0, ttl=1.0)

    def test_remove_and_discard(self, table):
        table.insert(StatePair(key=5))
        table.remove(5)
        with pytest.raises(KeyError):
            table.remove(5)
        table.discard(5)  # no-op

    def test_invalidate(self, table):
        table.insert(StatePair(key=5, addr=ADDR))
        assert table.invalidate(5)
        assert table.get(5).addr is None
        assert not table.invalidate(99)

    def test_expire_removes_lapsed(self, table):
        table.insert(StatePair(key=5, ttl=10.0, refreshed_at=0.0))
        table.insert(StatePair(key=6, ttl=100.0, refreshed_at=0.0))
        dead = table.expire(now=50.0)
        assert dead == [5]
        assert 5 not in table and 6 in table


class TestStateTableLookup:
    def test_iteration_sorted(self, table):
        for k in (300, 100, 200):
            table.insert(StatePair(key=k))
        assert [p.key for p in table] == [100, 200, 300]
        assert table.keys() == [100, 200, 300]

    def test_closest_to(self, table):
        for k in (100, 500, 900):
            table.insert(StatePair(key=k))
        assert table.closest_to(490).key == 500
        assert table.closest_to(120).key == 100

    def test_closest_to_empty(self, table):
        assert table.closest_to(5) is None

    def test_closer_than_owner(self, table, space):
        # Owner is 1000; entry 900 is closer to 890 than the owner is.
        table.insert(StatePair(key=900))
        found = table.closer_than_owner(890)
        assert found is not None and found.key == 900
        # But for a target at 1001 the owner itself is closest.
        assert table.closer_than_owner(1001) is None

    def test_len(self, table):
        assert len(table) == 0
        table.insert(StatePair(key=1))
        assert len(table) == 1
