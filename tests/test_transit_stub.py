"""Tests for repro.net.transit_stub — the GT-ITM-style generator."""

import math

import pytest

from repro.net import TransitStubParams, generate_transit_stub, params_for_router_count
from repro.net import transit_stub
from repro.sim import RngStreams

from .oracles.setup import connect_domain_pairwise, topology_digest


class TestParams:
    def test_total_routers(self):
        p = TransitStubParams(
            num_transit_domains=2,
            transit_nodes_per_domain=3,
            stub_domains_per_transit=2,
            stub_nodes_per_domain=5,
        )
        # 6 transit + 6*2 stub domains * 5 nodes = 66
        assert p.total_routers == 66

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_transit_domains": 0},
            {"transit_nodes_per_domain": 0},
            {"stub_nodes_per_domain": 0},
            {"intra_edge_prob": 1.5},
            {"intra_stub_weight": (0.0, 1.0)},
            {"transit_transit_weight": (5.0, 1.0)},
        ],
    )
    def test_invalid_params_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TransitStubParams(**kwargs)

    @pytest.mark.parametrize(
        "field",
        ["transit_transit_weight", "transit_stub_weight", "intra_stub_weight", "intra_transit_weight"],
    )
    @pytest.mark.parametrize("bounds", [(math.nan, 4.0), (1.0, math.nan), (1.0, math.inf)])
    def test_non_finite_weight_range_rejected(self, field, bounds):
        """NaN fails every comparison, so ``lo <= 0`` alone let it through."""
        with pytest.raises(ValueError, match="finite"):
            TransitStubParams(**{field: bounds})


class TestGeneration:
    @pytest.fixture
    def topo(self):
        return generate_transit_stub(TransitStubParams(), RngStreams(42))

    def test_router_count_matches_params(self, topo):
        assert topo.num_routers == topo.params.total_routers

    def test_connected(self, topo):
        assert topo.graph.is_connected()

    def test_frozen(self, topo):
        assert topo.graph.frozen

    def test_partition_transit_vs_stub(self, topo):
        transit = set(topo.transit_routers)
        stub = set(topo.stub_routers)
        assert transit.isdisjoint(stub)
        assert len(transit | stub) == topo.num_routers

    def test_stub_domains_cover_stub_routers(self, topo):
        covered = {r for members in topo.domains.values() for r in members}
        assert covered == set(topo.stub_routers)
        for r in topo.stub_routers:
            assert topo.stub_domain_of[r] in topo.domains

    def test_domain_count(self, topo):
        p = topo.params
        expected = p.num_transit_domains * p.transit_nodes_per_domain * p.stub_domains_per_transit
        assert len(topo.domains) == expected

    def test_attachment_points_are_stub_routers(self, topo):
        assert set(topo.attachment_points()) == set(topo.stub_routers)

    def test_deterministic_for_seed(self):
        t1 = generate_transit_stub(TransitStubParams(), RngStreams(7))
        t2 = generate_transit_stub(TransitStubParams(), RngStreams(7))
        assert sorted(t1.graph.edges()) == sorted(t2.graph.edges())

    def test_seed_changes_topology(self):
        t1 = generate_transit_stub(TransitStubParams(), RngStreams(7))
        t2 = generate_transit_stub(TransitStubParams(), RngStreams(8))
        assert sorted(t1.graph.edges()) != sorted(t2.graph.edges())

    def test_weight_hierarchy(self, topo):
        """Intra-stub links must be cheaper than stub-transit and
        transit-transit links (the GT-ITM cost structure §4.1 relies on)."""
        p = topo.params
        transit = set(topo.transit_routers)
        for u, v, w in topo.graph.edges():
            if u in transit and v in transit:
                lo, hi = (
                    min(p.intra_transit_weight[0], p.transit_transit_weight[0]),
                    max(p.intra_transit_weight[1], p.transit_transit_weight[1]),
                )
            elif u in transit or v in transit:
                lo, hi = p.transit_stub_weight
            else:
                lo, hi = p.intra_stub_weight
            assert lo <= w <= hi, f"edge ({u},{v}) weight {w} outside [{lo},{hi}]"

    def test_single_transit_domain(self):
        p = TransitStubParams(num_transit_domains=1)
        topo = generate_transit_stub(p, RngStreams(3))
        assert topo.graph.is_connected()


class TestParamsForRouterCount:
    @pytest.mark.parametrize("target", [100, 500, 2000, 10000])
    def test_close_to_target(self, target):
        p = params_for_router_count(target)
        assert abs(p.total_routers - target) / target < 0.35

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            params_for_router_count(4)


class TestDrawForDrawParity:
    """The array replay of the ``"topology"`` stream in ``_connect_domain``
    must wire the edges the scalar loop did, with the weights it drew."""

    #: the edge sets of the parent of issue 12 (per-pair ``has_edge`` loop),
    #: hashed in ascending ``(u, v)`` order since issue 24 (a frozen graph
    #: keeps no insertion order) — same sets at the parent of issue 24
    GOLDEN = [
        (1, params_for_router_count(1200), "c56dcef36ea09869"),
        (2, TransitStubParams(), "6619b13af0954d3c"),
        (3, params_for_router_count(300), "69b82f0464492dd2"),
    ]

    @pytest.mark.parametrize("seed,params,digest", GOLDEN, ids=["seed1", "seed2", "seed3"])
    def test_golden_edge_lists(self, seed, params, digest):
        topo = generate_transit_stub(params, RngStreams(seed))
        assert topology_digest(topo) == digest

    @pytest.mark.parametrize("seed,domain", [(11, 1), (12, 2), (13, 7), (14, 30)])
    @pytest.mark.parametrize("prob", [0.0, 0.05, 0.4, 0.95, 1.0])
    def test_matches_pairwise_loop(self, monkeypatch, seed, domain, prob):
        params = TransitStubParams(stub_nodes_per_domain=domain, intra_edge_prob=prob)
        fast_rng = RngStreams(seed)
        fast = generate_transit_stub(params, fast_rng)
        monkeypatch.setattr(transit_stub, "_connect_domain", connect_domain_pairwise)
        slow_rng = RngStreams(seed)
        slow = generate_transit_stub(params, slow_rng)
        assert list(fast.graph.edges()) == list(slow.graph.edges())
        # ... and the stream is left where the loop left it.
        assert fast_rng.stream("topology").random() == slow_rng.stream("topology").random()
