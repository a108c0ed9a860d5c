"""Tests for repro.core.bristle — the two-layer network facade."""

import os
import subprocess
import sys
import time

import pytest

from repro.core import BristleConfig, BristleNetwork
from repro.net.underlay import build_underlay

from .oracles.setup import pool_random_registrations


def test_public_engine_does_not_load_columnar_module():
    """The object directory is the only backend of the public API: the
    array engine of the shard scenarios must not ride along on import."""
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    code = (
        "import sys, repro.core.bristle\n"
        "print('repro.sim.columnar' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.stdout.strip() == "False", out.stderr


class TestBuild:
    def test_population(self, small_net):
        assert small_net.num_nodes == 100
        assert len(small_net.stationary_keys) == 60
        assert len(small_net.mobile_keys) == 40

    def test_layers_membership(self, small_net):
        assert small_net.stationary_layer.num_nodes == 60
        assert small_net.mobile_layer.num_nodes == 100
        for k in small_net.stationary_keys:
            assert small_net.stationary_layer.is_member(k)
            assert small_net.mobile_layer.is_member(k)
        for k in small_net.mobile_keys:
            assert not small_net.stationary_layer.is_member(k)
            assert small_net.mobile_layer.is_member(k)

    def test_all_nodes_placed(self, small_net):
        for k in small_net.nodes:
            assert small_net.placement.is_attached(k)
            assert small_net.nodes[k].address is not None

    def test_clustered_keys_respect_band(self, small_net):
        naming = small_net.naming
        for k in small_net.stationary_keys:
            assert naming.is_stationary_key(k)
        for k in small_net.mobile_keys:
            assert not naming.is_stationary_key(k)

    def test_mobile_locations_published_at_build(self, small_net):
        for mk in small_net.mobile_keys:
            assert small_net.directory.resolve(mk, now=0.0) is not None

    def test_explicit_capacities(self):
        cfg = BristleConfig(seed=2)
        # Build once to learn the keys, then rebuild with pinned capacities.
        probe = BristleNetwork(cfg, 10, 5, router_count=100)
        caps = {k: 7.0 for k in probe.stationary_keys + probe.mobile_keys}
        net = BristleNetwork(cfg, 10, 5, router_count=100, capacities=caps)
        assert all(n.capacity == 7.0 for n in net.nodes.values())

    def test_capacity_range_default(self, small_net):
        for n in small_net.nodes.values():
            assert 1.0 <= n.capacity <= 15.0

    def test_too_few_stationary_rejected(self):
        with pytest.raises(ValueError):
            BristleNetwork(BristleConfig(), 1, 5)

    def test_deterministic_build(self):
        cfg = BristleConfig(seed=11)
        n1 = BristleNetwork(cfg, 20, 10, router_count=100)
        n2 = BristleNetwork(cfg, 20, 10, router_count=100)
        assert n1.stationary_keys == n2.stationary_keys
        assert n1.mobile_keys == n2.mobile_keys
        assert [n1.placement.router_of(k) for k in n1.nodes] == [
            n2.placement.router_of(k) for k in n2.nodes
        ]


class TestMove:
    def test_move_updates_address_and_directory(self, small_net):
        mk = small_net.mobile_keys[0]
        old_addr = small_net.nodes[mk].address
        report = small_net.move(mk)
        new_addr = small_net.nodes[mk].address
        assert new_addr.epoch == old_addr.epoch + 1
        assert small_net.directory.resolve(mk, now=0.0) == new_addr
        assert report.new_address == new_addr
        assert small_net.nodes[mk].moves == 1

    def test_move_stationary_rejected(self, small_net):
        with pytest.raises(ValueError):
            small_net.move(small_net.stationary_keys[0])

    def test_move_publish_holders(self, small_net):
        report = small_net.move(small_net.mobile_keys[1])
        assert len(report.publish_holders) == small_net.config.replication
        assert report.publish_hops >= 1

    def test_move_without_publish(self, small_net):
        mk = small_net.mobile_keys[2]
        before = small_net.directory.resolve(mk, now=0.0)
        report = small_net.move(mk, publish=False)
        assert report.publish_holders == []
        # Directory still has the stale address.
        assert small_net.directory.resolve(mk, now=0.0) == before
        assert small_net.directory.resolve(mk, now=0.0) != small_net.nodes[mk].address

    def test_move_advertises_ldt_when_registered(self, small_net):
        small_net.setup_random_registrations(registry_size=6)
        mk = small_net.mobile_keys[0]
        report = small_net.move(mk, advertise=True)
        assert report.ldt is not None
        assert report.ldt.num_members == 6
        assert report.ldt_messages == 6
        assert report.total_messages == 6 + small_net.config.replication

    def test_move_no_ldt_without_registrations(self, small_net):
        report = small_net.move(small_net.mobile_keys[0], advertise=True)
        assert report.ldt is None
        assert report.ldt_messages == 0
        assert report.ldt_depth == 0


class TestDiscovery:
    def test_discover_returns_current_address(self, small_net):
        mk = small_net.mobile_keys[0]
        small_net.move(mk)
        d = small_net.discover(small_net.stationary_keys[0], mk)
        assert d.found
        assert d.address == small_net.nodes[mk].address

    def test_discover_from_mobile_enters_via_stationary(self, small_net):
        src = small_net.mobile_keys[5]
        tgt = small_net.mobile_keys[6]
        d = small_net.discover(src, tgt)
        assert d.found
        assert d.hops[0] == src
        # The entry point must be stationary.
        assert not small_net.is_mobile(d.hops[1])

    def test_discover_hop_path_in_stationary_layer(self, small_net):
        src = small_net.stationary_keys[3]
        tgt = small_net.mobile_keys[7]
        d = small_net.discover(src, tgt)
        for h in d.hops:
            assert not small_net.is_mobile(h)

    def test_discover_expired_record(self, small_net):
        mk = small_net.mobile_keys[0]
        small_net.advance_time(small_net.config.state_ttl + 1)
        d = small_net.discover(small_net.stationary_keys[0], mk)
        assert not d.found

    def test_resolution_load_incremented(self, small_net):
        small_net.discover(small_net.stationary_keys[0], small_net.mobile_keys[0])
        assert sum(small_net.resolution_load.values()) == 1


class TestJoinLeave:
    def _fresh_mobile_key(self, net):
        k = 3
        while k in net.nodes:
            k += 1
        return k

    def test_join_adds_member(self, small_net):
        k = self._fresh_mobile_key(small_net)
        node = small_net.join_mobile_node(k, capacity=2.0)
        assert small_net.is_mobile(k)
        assert small_net.mobile_layer.is_member(k)
        assert small_net.num_mobile == 41
        assert node.address is not None
        assert small_net.directory.resolve(k, now=0.0) == node.address

    def test_join_registers_reciprocally(self, small_net):
        k = self._fresh_mobile_key(small_net)
        small_net.join_mobile_node(k)
        node = small_net.nodes[k]
        # Fig 5: the newcomer's neighbours registered to it, and it to
        # its mobile neighbours.
        assert len(node.registry) > 0
        neighbours = set(small_net.mobile_layer.neighbors_of(k))
        mobile_neighbours = {n for n in neighbours if small_net.is_mobile(n)}
        assert node.subscriptions == mobile_neighbours

    def test_join_duplicate_rejected(self, small_net):
        with pytest.raises(ValueError):
            small_net.join_mobile_node(small_net.mobile_keys[0])

    def test_leave_removes_everything(self, small_net):
        k = self._fresh_mobile_key(small_net)
        small_net.join_mobile_node(k)
        small_net.leave_mobile_node(k)
        assert k not in small_net.nodes
        assert not small_net.mobile_layer.is_member(k)
        assert small_net.directory.resolve(k, now=0.0) is None
        assert small_net.num_mobile == 40
        for node in small_net.nodes.values():
            assert k not in node.registry
            assert k not in node.subscriptions

    def test_leave_stationary_rejected(self, small_net):
        with pytest.raises(ValueError):
            small_net.leave_mobile_node(small_net.stationary_keys[0])

    def test_routes_work_after_join_leave(self, small_net):
        from repro.core import route_with_resolution

        k = self._fresh_mobile_key(small_net)
        small_net.join_mobile_node(k)
        tr = route_with_resolution(small_net, small_net.stationary_keys[0], k)
        assert tr.success
        small_net.leave_mobile_node(k)
        tr2 = route_with_resolution(
            small_net, small_net.stationary_keys[0], small_net.stationary_keys[1]
        )
        assert tr2.success


class TestRegistrationSetups:
    def test_random_registrations_size(self, small_net):
        small_net.setup_random_registrations(registry_size=5)
        for mk in small_net.mobile_keys:
            assert len(small_net.nodes[mk].registry) == 5

    def test_random_registrations_default_log(self, small_net):
        small_net.setup_random_registrations()
        expected = small_net.config.effective_registry_size(small_net.num_nodes)
        for mk in small_net.mobile_keys:
            assert len(small_net.nodes[mk].registry) == expected

    def test_local_registrations_closer_than_random(self, small_net, scrambled_net):
        """Locality-aware registrants must be network-closer on average."""
        import numpy as np

        net = small_net
        net.setup_local_registrations(registry_size=6)
        local_d = []
        for mk in net.mobile_keys[:10]:
            for e in net.nodes[mk].registry_entries():
                local_d.append(net.network_distance_between_keys(mk, e.key))

        net2 = scrambled_net
        net2.setup_random_registrations(registry_size=6)
        rand_d = []
        for mk in net2.mobile_keys[:10]:
            for e in net2.nodes[mk].registry_entries():
                rand_d.append(net2.network_distance_between_keys(mk, e.key))
        assert np.mean(local_d) < np.mean(rand_d)

    def test_overlay_registrations_reverse_neighbours(self, small_net):
        small_net.setup_registrations_from_overlay()
        # Every mobile node's registry = nodes holding it in their state.
        mk = small_net.mobile_keys[0]
        holders = {
            int(k)
            for k in small_net.mobile_layer.keys
            if mk in small_net.mobile_layer.neighbors_of(int(k))
        }
        assert set(small_net.nodes[mk].registry) == holders

    def test_only_keys_restriction(self, small_net):
        subset = small_net.mobile_keys[:3]
        small_net.setup_random_registrations(registry_size=4, only_keys=subset)
        for mk in subset:
            assert len(small_net.nodes[mk].registry) == 4
        for mk in small_net.mobile_keys[3:]:
            assert len(small_net.nodes[mk].registry) == 0

    @pytest.mark.parametrize("seed", [3, 7, 19])
    @pytest.mark.parametrize("naming", ["clustered", "scrambled"])
    @pytest.mark.parametrize("size", [None, 1, 6, 500])
    def test_random_registrations_match_pool_sampling(self, seed, naming, size):
        """Index draws with the target's slot skipped pick who the
        materialised N-1 pool picked, in the same order, and leave the
        ``"registrations"`` stream where it left it."""
        nets = [
            BristleNetwork(BristleConfig(seed=seed, naming=naming), 40, 25, router_count=100)
            for _ in range(2)
        ]
        subset = nets[0].mobile_keys[::4] + nets[0].stationary_keys[:2]
        for only_keys in (None, subset):
            nets[0].setup_random_registrations(size, only_keys=only_keys)
            pool_random_registrations(nets[1], size, only_keys=only_keys)
            for key in nets[0].nodes:
                assert list(nets[0].nodes[key].registry) == list(
                    nets[1].nodes[key].registry
                )
        assert (
            nets[0].rng.stream("registrations").random()
            == nets[1].rng.stream("registrations").random()
        )

    def test_local_registrations_skip_only_the_target(self, small_net):
        small_net.setup_local_registrations(registry_size=99)
        mk = small_net.mobile_keys[5]
        assert set(small_net.nodes[mk].registry) == set(small_net.nodes) - {mk}


class TestMembershipBookkeeping:
    def test_mobile_keys_stay_sorted_across_churn(self, small_net):
        joiners = [1, small_net.space.size - 1, small_net.mobile_keys[7] + 1]
        joiners = [k for k in joiners if k not in small_net.nodes]
        for k in joiners:
            small_net.join_mobile_node(k)
        for k in (small_net.mobile_keys[0], small_net.mobile_keys[-1], joiners[-1]):
            small_net.leave_mobile_node(k)
        assert small_net.mobile_keys == sorted(small_net._mobile_set)
        assert small_net.num_mobile == len(small_net.mobile_keys)

    def test_leave_evicts_exactly_its_cached_groups(self, small_net):
        small_net.setup_random_registrations(registry_size=4)
        a, b, c, d = small_net.mobile_keys[:4]
        for group in ([a, b], [a, c, d], [c, d]):
            small_net.ldt_for_group(group)
        small_net.leave_mobile_node(a)
        assert list(small_net._ldt_cache) == [(c, d)]
        cached = small_net._ldt_cache[(c, d)][1]
        assert small_net.ldt_for_group([d, c])[1] is cached
        small_net.leave_mobile_node(d)
        assert not small_net._ldt_cache
        assert not any(small_net._groups_of.values())


class TestSetupScaling:
    def test_setup_time_grows_linearly_with_population(self):
        """Four times the nodes may cost about four times the set-up (the
        registry is ⌈log₂ N⌉, so a little more), never the sixteen times
        of an O(N·M) expression.  A ratio of best-of-three times on one
        shared underlay, so it holds on a slow or busy machine too."""
        underlay = build_underlay(5, 400)

        def best_of_three(stationary: int, mobile: int) -> float:
            best = float("inf")
            for _ in range(3):
                start = time.perf_counter()
                net = BristleNetwork(
                    BristleConfig(seed=5), stationary, mobile, underlay=underlay
                )
                net.setup_random_registrations()
                best = min(best, time.perf_counter() - start)
            return best

        small = best_of_three(2000, 1000)
        large = best_of_three(8000, 4000)
        assert large / small < 8, f"{small:.3f} s -> {large:.3f} s"


class TestClock:
    def test_advance_time(self, small_net):
        small_net.advance_time(5.0)
        assert small_net.now == 5.0
        with pytest.raises(ValueError):
            small_net.advance_time(-1.0)
