"""A tree kept across moves must be indistinguishable from one rebuilt.

``BristleNetwork.move`` reuses a node's advertisement tree while the
fingerprint of its Fig-4 inputs stands.  The differential test drives twin
networks from one seed through the same random op sequence — one of them
with its tree cache emptied before every op, i.e. the network as it was
when every move re-ran Fig 4 — and requires, after every step, equal
reports, equal ``metrics.snapshot()`` and equal ledger rows *in the same
key order* (a wave served from the cache is still counted, in full, in the
order a rebuilt one would be).
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BristleConfig, BristleNetwork

OPS = (
    "move", "move", "move", "move_many", "register", "unregister",
    "consume", "release", "join", "leave", "write_capacity", "write_used",
)
STEPS = st.lists(
    st.tuples(st.sampled_from(OPS), st.integers(0, 10**6), st.integers(0, 10**6)),
    min_size=1,
    max_size=40,
)


def make_net(seed: int) -> BristleNetwork:
    cfg = BristleConfig(seed=seed, naming="scrambled")
    net = BristleNetwork(cfg, num_stationary=24, num_mobile=12, router_count=60)
    net.setup_random_registrations()
    return net


def apply(net: BristleNetwork, op: str, a: int, b: int):
    """One step, its targets chosen from the network's own state (the
    twins are in the same state, so they choose alike).  Moves go to the
    first few mobile keys and writes to those keys or their registrants,
    so that a sequence keeps coming back to a tree it has touched."""
    mobile = net.mobile_keys
    everyone = net.stationary_keys + mobile
    target = mobile[a % 3]
    input_of_target = ([target] + sorted(net.nodes[target].registry))[
        b % (1 + len(net.nodes[target].registry))
    ]
    if op == "move":
        return net.move(target)
    if op == "move_many":
        return net.move_many([mobile[(a + i) % 5] for i in range(2 + b % 3)])
    if op == "register":
        registrant = everyone[b % len(everyone)]
        if registrant != target:
            net.registrations.register(registrant, target, now=net.now)
    elif op == "unregister":
        if input_of_target != target:
            net.registrations.unregister(input_of_target, target)
    elif op == "consume":
        net.nodes[input_of_target].consume(0.5 * (a % 5))
    elif op == "release":
        net.nodes[input_of_target].release(0.5 * (a % 5))
    elif op == "join":
        key = (a * 2654435761 + b) % net.space.size
        if key not in net.nodes:
            net.join_mobile_node(key, capacity=float(1 + b % 6))
    elif op == "leave":
        if len(mobile) > 6:
            net.leave_mobile_node(mobile[a % 5])
    elif op == "write_capacity":
        net.nodes[input_of_target].capacity = float(1 + a % 9)
    elif op == "write_used":
        net.nodes[input_of_target].used = 0.25 * (a % 12)
    return None


def same_number(x: float, y: float) -> bool:
    return x == y or (math.isnan(x) and math.isnan(y))


def assert_same_telemetry(kept: BristleNetwork, rebuilt: BristleNetwork) -> None:
    a, b = kept.telemetry.metrics.snapshot(), rebuilt.telemetry.metrics.snapshot()
    assert list(a) == list(b)
    assert all(same_number(a[name], b[name]) for name in a), {
        name: (a[name], b[name]) for name in a if not same_number(a[name], b[name])
    }
    assert kept.telemetry.nodeload.keys == rebuilt.telemetry.nodeload.keys
    assert (
        kept.telemetry.nodeload.export_state()
        == rebuilt.telemetry.nodeload.export_state()
    )


class TestKeptTreeEqualsRebuiltTree:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(1, 50), steps=STEPS)
    def test_twin_networks_stay_equal(self, seed, steps):
        kept, rebuilt = make_net(seed), make_net(seed)
        for op, a, b in steps:
            rebuilt._ldt_cache.clear()
            rebuilt._groups_of.clear()
            assert apply(kept, op, a, b) == apply(rebuilt, op, a, b)
            assert_same_telemetry(kept, rebuilt)

    def test_a_move_reuses_the_tree_and_still_counts_the_wave(self):
        net = make_net(3)
        key = next(k for k in net.mobile_keys if net.nodes[k].registry)
        metrics = net.telemetry.metrics
        first = net.move(key).ldt
        fanout_samples = len(metrics.histogram("ldt.fanout"))
        charged = net.telemetry.nodeload.total("ldt_fanout")
        second = net.move(key).ldt
        assert second is first
        assert metrics.counter("ldt.built").value == 2
        assert len(metrics.histogram("ldt.depth")) == 2
        assert len(metrics.histogram("ldt.fanout")) == 2 * fanout_samples
        assert net.telemetry.nodeload.total("ldt_fanout") == 2 * charged
        # move() shares ldt_for's cache but not its hit/miss counters.
        assert "ldt.cache_hits" not in metrics.counters
        assert net.ldt_for(key) is first
        assert metrics.counter("ldt.cache_hits").value == 1
        assert metrics.counter("ldt.built").value == 2

    def test_leave_evicts_the_tree(self):
        net = make_net(3)
        key = next(k for k in net.mobile_keys if net.nodes[k].registry)
        net.move(key)
        assert (key,) in net._ldt_cache
        net.leave_mobile_node(key)
        assert (key,) not in net._ldt_cache


class TestEveryFig4InputIsFingerprinted:
    """The tree is derived from the live ``capacity`` / ``used`` attributes.
    A change counter bumped by ``consume`` / ``release`` / ``register`` /
    ``unregister`` missed a direct assignment, and ``ldt_for`` (and
    ``EarlyBinding``) went on serving the stale tree."""

    @pytest.mark.parametrize("attribute,value", [("capacity", 9.0), ("used", 0.75)])
    @pytest.mark.parametrize("who", ["root", "registrant"])
    def test_direct_write_then_move(self, attribute, value, who):
        net = make_net(5)
        key = next(k for k in net.mobile_keys if len(net.nodes[k].registry) > 2)
        stale = net.move(key).ldt
        assert net.ldt_for(key) is stale
        written = key if who == "root" else sorted(net.nodes[key].registry)[0]
        assert getattr(net.nodes[written], attribute) != value
        setattr(net.nodes[written], attribute, value)
        report = net.move(key)
        assert report.ldt == net.build_ldt_for(key)
        assert report.ldt != stale
        assert net.ldt_for(key) == net.build_ldt_for(key)

    @staticmethod
    def _non_finite_write_then(op, attribute):
        """A write the node's own checks never see: the next wave rejects
        it by name instead of building a tree on a NaN sort — before the
        mover is re-attached or published, so nothing half-applies."""
        net = make_net(5)
        key = next(k for k in net.mobile_keys if len(net.nodes[k].registry) > 2)
        group = [key, next(k for k in net.mobile_keys if k != key)]
        net.move(key)
        written = sorted(net.nodes[key].registry)[1]
        setattr(net.nodes[written], attribute, math.nan)

        def state():
            return (
                [net.nodes[k].address for k in group],
                [net.placement.address_of(k) for k in group],
                [net.nodes[k].moves for k in group],
                net.directory.snapshot(),
                net.telemetry.metrics.counter("ldt.built").value,
            )

        before = state()
        with pytest.raises(ValueError, match=f"must be finite.* for key {written}$"):
            net.move(key) if op == "move" else net.move_many(group)
        assert state() == before

    @pytest.mark.parametrize("attribute", ["capacity", "used"])
    def test_direct_non_finite_write_then_move(self, attribute):
        self._non_finite_write_then("move", attribute)

    @pytest.mark.parametrize("attribute", ["capacity", "used"])
    def test_direct_non_finite_write_then_move_many(self, attribute):
        self._non_finite_write_then("move_many", attribute)

    def test_a_lease_refresh_keeps_the_tree(self):
        net = make_net(5)
        key = next(k for k in net.mobile_keys if net.nodes[k].registry)
        tree = net.ldt_for(key)
        registrant = sorted(net.nodes[key].registry)[0]
        net.advance_time(5.0)
        assert not net.registrations.register(registrant, key, now=net.now)
        assert net.ldt_for(key) is tree
