"""The bulk set-up kernels against their loop references
(``tests/oracles/setup.py``): the underlay from edge columns, capacities
and placements in one draw each, and a target's registrants in one batch."""

import numpy as np
import pytest

from repro.core import BristleConfig, BristleNetwork
from repro.net import Graph, Placement, transit_stub
from repro.net.transit_stub import (
    TransitStubParams,
    generate_transit_stub,
    params_for_router_count,
)
from repro.sim import RngStreams

from .oracles.setup import DictGraph, connect_domain_pairwise, scalar_nodes


class TestUnderlayFromColumns:
    @pytest.mark.parametrize("seed,routers", [(1, 100), (1, 2250), (7, 7504), (3, 10000)])
    def test_csr_matches_dict_of_dicts(self, monkeypatch, seed, routers):
        """Same CSR, edge count and ``"topology"`` stream position as one
        scalar draw per coin and weight into a dict-of-dicts graph."""
        params = params_for_router_count(routers)
        fast_rng = RngStreams(seed)
        fast = generate_transit_stub(params, fast_rng).graph
        monkeypatch.setattr(transit_stub, "Graph", DictGraph)
        monkeypatch.setattr(transit_stub, "_connect_domain", connect_domain_pairwise)
        slow_rng = RngStreams(seed)
        slow = generate_transit_stub(params, slow_rng).graph
        assert isinstance(slow, DictGraph)
        for got, want in zip(fast.csr(), slow.csr()):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert fast.num_edges == slow.num_edges
        assert fast_rng.stream("topology").random() == slow_rng.stream("topology").random()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_overwrites_in_either_orientation(self, seed):
        """Repeated edges, written u→v or v→u, half in one ``add_edges``
        call and half one ``add_edge`` at a time: the last write wins."""
        gen = np.random.default_rng(seed)
        n = 40
        us, vs = gen.integers(0, n, size=(2, 600))
        us, vs = us[us != vs], vs[us != vs]
        ws = gen.uniform(0.5, 9.0, size=us.size)
        fast, slow = Graph(), DictGraph()
        fast.add_vertices(n)
        slow.add_vertices(n)
        half = us.size // 2
        fast.add_edges(us[:half], vs[:half], ws[:half])
        for u, v, w in zip(us[half:].tolist(), vs[half:].tolist(), ws[half:].tolist()):
            fast.add_edge(u, v, w)
        for u, v, w in zip(us.tolist(), vs.tolist(), ws.tolist()):
            slow.add_edge(u, v, w)
        assert fast.num_edges == slow.num_edges
        assert fast.is_connected() == slow.is_connected()
        fast.freeze()
        slow.freeze()
        for got, want in zip(fast.csr(), slow.csr()):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("edges", [0, 5, 12, 40])
    def test_connectivity_matches_search(self, edges):
        gen = np.random.default_rng(edges)
        fast, slow = Graph(), DictGraph()
        fast.add_vertices(14)
        slow.add_vertices(14)
        for _ in range(edges):
            u, v = gen.choice(14, size=2, replace=False).tolist()
            fast.add_edge(u, v, 1.0)
            slow.add_edge(u, v, 1.0)
        assert fast.is_connected() == slow.is_connected()


class TestNodesInOnePass:
    @pytest.mark.parametrize("seed", [1, 4])
    @pytest.mark.parametrize("partial,max_capacity", [(False, 15), (True, 15), (True, 3)])
    def test_matches_scalar_loop(self, seed, partial, max_capacity):
        """Capacities, addresses and ports, and both streams' positions —
        also when ``capacities=`` names only some keys."""
        config = BristleConfig(seed=seed)
        keys = BristleNetwork(config, 60, 40, router_count=100).nodes
        capacities = {k: 2.5 + i for i, k in enumerate(list(keys)[::3])} if partial else None
        net = BristleNetwork(
            config, 60, 40, router_count=100, capacities=capacities, max_capacity=max_capacity
        )
        caps, addrs, rng = scalar_nodes(net, capacities, max_capacity)
        assert list(net.nodes) == list(caps)
        assert {k: n.capacity for k, n in net.nodes.items()} == caps
        assert {k: n.address for k, n in net.nodes.items()} == addrs
        assert {k: net.placement.address_of(k) for k in net.nodes} == addrs
        for stream in ("capacities", "placement"):
            assert net.rng.stream(stream).random() == rng.stream(stream).random()


class TestAttachMany:
    @pytest.fixture
    def topo(self):
        return generate_transit_stub(TransitStubParams(), RngStreams(2))

    def test_batch_is_attach_one_by_one(self, topo):
        bulk, loop = Placement(topo, RngStreams(9)), Placement(topo, RngStreams(9))
        assert bulk.attach_many(range(50)) == [loop.attach(h) for h in range(50)]
        assert bulk.attach_many([60, 61], routers=[3, 4]) == [loop.attach(60, 3), loop.attach(61, 4)]
        assert bulk.attach_many([]) == []
        assert bulk._rng.stream("placement").random() == loop._rng.stream("placement").random()

    def test_rejects_before_attaching(self, topo):
        placement = Placement(topo, RngStreams(9))
        placement.attach(5)
        for hosts in ([6, 5], [7, 7]):
            with pytest.raises(ValueError):
                placement.attach_many(hosts)
        with pytest.raises(ValueError):
            placement.attach_many([8], routers=[1, 2])
        assert placement.hosts() == [5]
        assert placement.attach(6).port == 2


class TestRegisterMany:
    @staticmethod
    def _counters(net):
        counters = net.telemetry.metrics._counters
        return {n: c.value for n, c in counters.items() if n.startswith("op.register")}

    def test_matches_register_loop(self):
        """Registries (entries and order), subscriptions, the new-count and
        both ``op.register.*`` counters — with re-registrations, within a
        batch and across batches."""
        nets = [BristleNetwork(BristleConfig(seed=3), 40, 25, router_count=100) for _ in range(2)]
        keys = nets[0].stationary_keys + nets[0].mobile_keys
        batches = [
            (mk, [k for k in keys[i::7] if k != mk][:6], float(i))
            for i, mk in enumerate(nets[0].mobile_keys[:8])
        ]
        first, regs, _ = batches[0]
        batches += [(first, regs[2:] + [batches[1][0]], 9.0), (first, [regs[0], regs[0]], 10.0)]
        for target, registrants, now in batches:
            new = nets[0].registrations.register_many(registrants, target, now)
            assert new == sum(nets[1].registrations.register(r, target, now) for r in registrants)
        for a, b in zip(nets[0].nodes.values(), nets[1].nodes.values()):
            assert list(a.registry.items()) == list(b.registry.items())
            assert a.subscriptions == b.subscriptions
        assert nets[0].registrations.registration_count == nets[1].registrations.registration_count
        assert self._counters(nets[0]) == self._counters(nets[1])
        assert set(self._counters(nets[0])) == {"op.register.count", "op.register.refreshed"}

    def test_self_registration_rejected_before_any_change(self):
        net = BristleNetwork(BristleConfig(seed=3), 40, 25, router_count=100)
        target, other = net.mobile_keys[0], net.stationary_keys[0]
        with pytest.raises(ValueError):
            net.registrations.register_many([other, target], target)
        assert not net.nodes[target].registry and not net.nodes[other].subscriptions
        assert self._counters(net) == {}
