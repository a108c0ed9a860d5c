"""Tests for repro.core.routing — Figure-2 routing with resolution."""

import pytest

from repro.core import BristleConfig, BristleNetwork, shuffle_all_mobile
from repro.core.routing import route_preferring_resolved, route_with_resolution


@pytest.fixture
def net(small_net):
    shuffle_all_mobile(small_net)
    return small_net


class TestRouteWithResolution:
    def test_reaches_owner(self, net):
        for t in net.mobile_keys[:5] + net.stationary_keys[:5]:
            tr = route_with_resolution(net, net.stationary_keys[0], t)
            assert tr.success
            if tr.records:
                assert tr.node_path[-1] == net.mobile_layer.owner_of(t)

    def test_stationary_only_route_has_no_resolutions(self, net):
        """A route whose every hop is stationary never pays discovery."""
        found = False
        for s in net.stationary_keys[:10]:
            for t in net.stationary_keys[10:20]:
                overlay_route = net.mobile_layer.route(s, t)
                if all(not net.is_mobile(h) for h in overlay_route.hops):
                    tr = route_with_resolution(net, s, t)
                    assert tr.resolutions == 0
                    assert tr.app_hops == overlay_route.hop_count
                    found = True
        assert found, "expected at least one all-stationary route in the sample"

    def test_every_mobile_hop_resolves_at_p1(self, net):
        s = net.stationary_keys[0]
        for t in net.mobile_keys[:10]:
            overlay_route = net.mobile_layer.route(s, t)
            mobile_hops = sum(1 for h in overlay_route.hops[1:] if net.is_mobile(h))
            tr = route_with_resolution(net, s, t, p_stale=1.0)
            assert tr.resolutions == mobile_hops

    def test_no_resolutions_at_p0(self, net):
        s = net.stationary_keys[0]
        for t in net.mobile_keys[:10]:
            tr = route_with_resolution(net, s, t, p_stale=0.0)
            assert tr.resolutions == 0

    def test_partial_staleness_in_between(self, net):
        s = net.stationary_keys[0]
        total_half = sum(
            route_with_resolution(net, s, t, p_stale=0.5).resolutions
            for t in net.mobile_keys
        )
        total_full = sum(
            route_with_resolution(net, s, t, p_stale=1.0).resolutions
            for t in net.mobile_keys
        )
        assert 0 < total_half < total_full

    def test_path_cost_is_sum_of_hops(self, net):
        tr = route_with_resolution(net, net.stationary_keys[0], net.mobile_keys[0])
        assert tr.path_cost == pytest.approx(sum(r.cost for r in tr.records))
        assert tr.app_hops == len(tr.records)

    def test_detour_structure(self, net):
        """A resolved hop appears as stationary hops then one 'deliver'."""
        s = net.stationary_keys[0]
        for t in net.mobile_keys[:10]:
            tr = route_with_resolution(net, s, t, p_stale=1.0)
            if tr.resolutions == 0:
                continue
            kinds = [r.kind for r in tr.records]
            assert "deliver" in kinds
            assert kinds.count("deliver") == tr.resolutions
            # 'deliver' hops come from stationary holders.
            for r in tr.records:
                if r.kind == "deliver":
                    assert not net.is_mobile(r.src)
                    assert net.is_mobile(r.dst)
            return
        pytest.skip("no resolution observed in sample")

    def test_stationary_detour_hops_are_stationary(self, net):
        s = net.stationary_keys[1]
        for t in net.mobile_keys[:10]:
            tr = route_with_resolution(net, s, t, p_stale=1.0)
            for r in tr.records:
                if r.kind in ("stationary", "inject"):
                    assert not net.is_mobile(r.dst)

    def test_hop_costs_match_oracle(self, net):
        tr = route_with_resolution(net, net.stationary_keys[2], net.stationary_keys[3])
        for r in tr.records:
            assert r.cost == pytest.approx(
                net.network_distance_between_keys(r.src, r.dst)
            )

    def test_route_to_data_key(self, net):
        """Routing toward an arbitrary data key terminates at its owner."""
        data_key = 123456789
        tr = route_with_resolution(net, net.stationary_keys[0], data_key)
        assert tr.success


class TestRoutePreferringResolved:
    def test_reaches_owner(self, net):
        for t in net.mobile_keys[:5] + net.stationary_keys[:5]:
            tr = route_preferring_resolved(net, net.stationary_keys[0], t)
            assert tr.success

    def test_fewer_or_equal_resolutions_than_greedy(self, net):
        greedy = sum(
            route_with_resolution(net, s, t).resolutions
            for s in net.stationary_keys[:5]
            for t in net.stationary_keys[5:10]
        )
        dodge = sum(
            route_preferring_resolved(net, s, t).resolutions
            for s in net.stationary_keys[:5]
            for t in net.stationary_keys[5:10]
        )
        assert dodge <= greedy

    def test_final_delivery_to_mobile_target_resolves(self, net):
        t = net.mobile_keys[0]
        tr = route_preferring_resolved(net, net.stationary_keys[0], t)
        assert tr.success
        # The last hop lands on the mobile target; with p_stale = 1 it
        # must have been resolved.
        assert tr.resolutions >= 1


class TestFractionalStaleness:
    """Both policies draw fractional staleness from the same
    ``routing.stale`` Bernoulli stream, so the ablation is comparable at
    any ``p_stale`` (prefer_resolved used to collapse p_stale < 1 to 0)."""

    def test_prefer_resolved_no_resolutions_at_p0(self, net):
        s = net.stationary_keys[0]
        for t in net.mobile_keys[:10]:
            tr = route_preferring_resolved(net, s, t, p_stale=0.0)
            assert tr.resolutions == 0

    def test_prefer_resolved_partial_staleness_in_between(self, net):
        s = net.stationary_keys[0]
        total_half = sum(
            route_preferring_resolved(net, s, t, p_stale=0.5).resolutions
            for t in net.mobile_keys
        )
        total_full = sum(
            route_preferring_resolved(net, s, t, p_stale=1.0).resolutions
            for t in net.mobile_keys
        )
        assert 0 < total_half < total_full

    @pytest.mark.parametrize(
        "route_fn", [route_with_resolution, route_preferring_resolved]
    )
    def test_half_staleness_resolves_about_half(self, net, route_fn):
        """Acceptance: at p_stale = 0.5 each policy's resolution count is
        statistically consistent with its own p_stale = 1.0 run — the
        next-hop choice is independent of the draw, so the count is
        Binomial(mobile hops, 0.5)."""
        targets = net.mobile_keys + net.stationary_keys[:20]
        sources = net.stationary_keys[:3]
        full = sum(
            route_fn(net, s, t, p_stale=1.0).resolutions
            for s in sources
            for t in targets
        )
        half = sum(
            route_fn(net, s, t, p_stale=0.5).resolutions
            for s in sources
            for t in targets
        )
        assert full > 0
        assert 0.35 * full < half < 0.65 * full

    def test_policies_default_to_config_p_stale(self):
        from repro.core import BristleConfig, BristleNetwork, shuffle_all_mobile

        cfg = BristleConfig(seed=7, naming="clustered", p_stale=0.0)
        net = BristleNetwork(cfg, num_stationary=60, num_mobile=40, router_count=100)
        shuffle_all_mobile(net)
        for t in net.mobile_keys[:5]:
            assert route_preferring_resolved(net, net.stationary_keys[0], t).resolutions == 0
            assert route_with_resolution(net, net.stationary_keys[0], t).resolutions == 0

    @pytest.mark.parametrize(
        "route_fn", [route_with_resolution, route_preferring_resolved]
    )
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), -0.5, 1.5])
    def test_out_of_range_override_is_rejected(self, net, route_fn, bad):
        """A per-call ``p_stale`` is held to the config's own check: NaN and
        -0.5 used to draw no resolution at all, 1.5 to act as 1.0."""
        with pytest.raises(ValueError, match=r"p_stale must be in \[0, 1\]"):
            BristleConfig(p_stale=bad)
        with pytest.raises(ValueError, match=r"p_stale must be in \[0, 1\]"):
            route_fn(net, net.stationary_keys[0], net.mobile_keys[0], p_stale=bad)
