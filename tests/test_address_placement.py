"""Tests for repro.net.address and repro.net.placement."""

import numpy as np
import pytest

from repro.net import NetworkAddress, Placement
from repro.sim import RngStreams


class TestNetworkAddress:
    def test_moved_bumps_epoch(self):
        a = NetworkAddress(router=3, port=7)
        b = a.moved(9)
        assert b.router == 9
        assert b.port == 7
        assert b.epoch == 1
        assert a.epoch == 0  # immutable

    def test_same_location_ignores_epoch(self):
        a = NetworkAddress(router=3, port=7, epoch=0)
        b = NetworkAddress(router=3, port=7, epoch=4)
        assert a.same_location(b)
        assert a != b

    def test_str(self):
        assert str(NetworkAddress(1, 2, 3)) == "1:2@e3"


class TestPlacement:
    @pytest.fixture
    def placement(self, topology):
        return Placement(topology, RngStreams(77))

    def test_attach_assigns_stub_router(self, placement, topology):
        addr = placement.attach(1)
        assert addr.router in set(topology.stub_routers)
        assert addr.epoch == 0

    def test_attach_unique_ports(self, placement):
        a = placement.attach(1)
        b = placement.attach(2)
        assert a.port != b.port

    def test_double_attach_rejected(self, placement):
        placement.attach(1)
        with pytest.raises(ValueError):
            placement.attach(1)

    def test_explicit_router(self, placement, topology):
        r = topology.stub_routers[0]
        assert placement.attach(1, router=r).router == r

    def test_move_changes_router_and_epoch(self, placement):
        placement.attach(1)
        old = placement.address_of(1)
        new = placement.move(1)
        assert new.epoch == old.epoch + 1
        assert new.router != old.router
        assert placement.move_count == 1

    def test_move_unattached_rejected(self, placement):
        with pytest.raises(KeyError):
            placement.move(42)

    def test_is_current_detects_stale(self, placement):
        placement.attach(1)
        old = placement.address_of(1)
        placement.move(1)
        assert not placement.is_current(1, old)
        assert placement.is_current(1, placement.address_of(1))

    def test_detach(self, placement):
        placement.attach(1)
        placement.detach(1)
        assert not placement.is_attached(1)
        with pytest.raises(KeyError):
            placement.detach(1)

    def test_hosts_listing(self, placement):
        placement.attach(1)
        placement.attach(5)
        assert sorted(placement.hosts()) == [1, 5]

    def test_network_distance_zero_same_router(self, placement, oracle, topology):
        r = topology.stub_routers[0]
        placement.attach(1, router=r)
        placement.attach(2, router=r)
        assert placement.network_distance(oracle, 1, 2) == 0.0

    def test_network_distance_positive(self, placement, oracle, topology):
        placement.attach(1, router=topology.stub_routers[0])
        placement.attach(2, router=topology.stub_routers[-1])
        assert placement.network_distance(oracle, 1, 2) > 0.0


BAD_ROUTERS = [-1, 10**9, 1.5, "3"]


class TestBadRouters:
    """A router outside the topology, or not an integer, is refused before
    anything is written — it used to be published and crash the first
    path-cost read."""

    @pytest.fixture
    def placement(self, topology):
        placement = Placement(topology, RngStreams(77))
        placement.attach_many([1, 2])
        return placement

    @pytest.mark.parametrize("router", BAD_ROUTERS)
    def test_placement_refuses(self, placement, router):
        before = {h: placement.address_of(h) for h in (1, 2)}
        with pytest.raises(ValueError, match="router"):
            placement.attach_many([3, 4], [0, router])
        with pytest.raises(ValueError, match="router"):
            placement.move(1, router)
        with pytest.raises(ValueError, match="router"):
            placement.move_group([1, 2], router)
        assert {h: placement.address_of(h) for h in (1, 2)} == before
        assert placement.hosts() == [1, 2]
        assert placement.move_count == 0

    def test_integer_likes_are_accepted(self, placement, topology):
        r = topology.stub_routers[0]
        assert placement.move(1, np.int64(r)).router == r
        assert type(placement.address_of(1).router) is int

    @pytest.mark.parametrize("router", BAD_ROUTERS)
    @pytest.mark.parametrize("op", ["move", "move_many"])
    def test_network_refuses_and_is_unchanged(self, small_net, router, op):
        net = small_net
        net.setup_random_registrations()
        keys = net.mobile_keys[:3]

        def state():
            return (
                [net.nodes[k].address for k in keys],
                [net.placement.address_of(k) for k in keys],
                [net.nodes[k].moves for k in keys],
                net.directory.snapshot(),
            )

        before = state()
        with pytest.raises(ValueError, match="router"):
            if op == "move":
                net.move(keys[0], router)
            else:
                net.move_many(keys, router)
        assert state() == before
