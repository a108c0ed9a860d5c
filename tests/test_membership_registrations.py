"""Join and leave register in bulk, with the per-pair loops' results.

``join_mobile_node`` registers its neighbours with one ``register_many``
and itself to its mobile neighbours with one ``subscribe``;
``leave_mobile_node`` clears both sides with one ``unregister_all``.
``tests/oracles/membership.py`` keeps the per-neighbour / per-pair loops
they replaced.  Twin networks (same seed, same registration set-up) run
the same join / leave / move script, one through the facade and one
through the oracle, and must end with the same registries (dict order
included: Fig 4's gather reads it), subscriptions, counters (present or
absent alike), histograms, directory and kept advertisement trees.

Keys arrive as plain ``int`` or not at all: a non-integral key is refused
before the first write, and NumPy integers are stored as ``int``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BristleConfig, BristleNetwork
from repro.net.placement import Placement
from repro.sim import RngStreams, Telemetry, Tracer

from .oracles.membership import reference_join, reference_leave

SETUPS = {
    "random": lambda net: net.setup_random_registrations(),
    "overlay": lambda net: net.setup_registrations_from_overlay(),
}

NETWORKS = st.fixed_dictionaries(
    {
        "seed": st.integers(1, 10**6),
        "setup": st.sampled_from(sorted(SETUPS)),
        "mobile_layer_overlay": st.sampled_from(["chord", "pastry"]),
        "num_stationary": st.integers(4, 30),
        "num_mobile": st.integers(2, 20),
    }
)

_ANY = st.integers(0, 2**32 - 1)
SCRIPTS = st.lists(
    st.one_of(
        st.tuples(st.just("join"), _ANY),
        st.tuples(st.just("leave"), _ANY),
        st.tuples(st.just("move"), _ANY),
    ),
    min_size=1,
    max_size=30,
)


def make_net(seed, setup, mobile_layer_overlay, num_stationary, num_mobile):
    cfg = BristleConfig(seed=seed, mobile_layer_overlay=mobile_layer_overlay)
    net = BristleNetwork(
        cfg,
        num_stationary,
        num_mobile,
        router_count=60,
        telemetry=Telemetry(tracer=Tracer(enabled=False)),
    )
    SETUPS[setup](net)
    return net


def apply(net, op, reference):
    kind, arg = op
    if kind == "join":
        if arg not in net.nodes:
            (reference_join if reference else BristleNetwork.join_mobile_node)(net, arg)
    elif kind == "leave":
        if len(net.mobile_keys) > 1:
            key = net.mobile_keys[arg % len(net.mobile_keys)]
            (reference_leave if reference else BristleNetwork.leave_mobile_node)(net, key)
    elif net.mobile_keys:
        net.move(net.mobile_keys[arg % len(net.mobile_keys)])


def registrations(net):
    """Every node's registry in dict order and its subscriptions."""
    return {
        key: (list(node.registry.items()), sorted(node.subscriptions))
        for key, node in net.nodes.items()
    }


def observed(net):
    metrics = net.telemetry.metrics
    return (
        registrations(net),
        net.registrations.registration_count,
        {n: c.value for n, c in metrics.counters.items() if n.startswith("op.")},
        {
            n: metrics.histograms[n].export_state()["samples"]
            for n in ("op.join.registrations", "op.leave.unregistrations")
            if n in metrics.histograms
        },
        net.directory.snapshot(),
        list(net._ldt_cache),
    )


@settings(max_examples=40, deadline=None)
@given(params=NETWORKS, script=SCRIPTS)
def test_bulk_registrations_equal_the_per_pair_loops(params, script):
    bulk, loops = make_net(**params), make_net(**params)
    for op in script:
        apply(bulk, op, 0)
        apply(loops, op, 1)
        assert registrations(bulk) == registrations(loops), op
    assert observed(bulk) == observed(loops)


def test_counters_appear_only_when_counted():
    """A leave that withdraws nothing creates no ``op.unregister.count``;
    the loops' per-pair bumps and the one bulk bump agree on the total."""
    params = dict(seed=5, setup="overlay", mobile_layer_overlay="chord",
                  num_stationary=6, num_mobile=3)
    bulk, loops = make_net(**params), make_net(**params)
    for net in (bulk, loops):
        for node in net.nodes.values():
            node.registry.clear()
            node.subscriptions.clear()
    key = bulk.mobile_keys[0]
    bulk.leave_mobile_node(key)
    reference_leave(loops, key)
    assert "op.unregister.count" not in bulk.telemetry.metrics.counters
    assert observed(bulk) == observed(loops)
    for op in [("join", 77), ("leave", 0), ("join", 78), ("leave", 1)]:
        apply(bulk, op, 0)
        apply(loops, op, 1)
    assert bulk.telemetry.metrics.counters["op.unregister.count"].value > 0
    assert observed(bulk) == observed(loops)


# ----------------------------------------------------------------------
# Keys: integral or refused, stored as int
# ----------------------------------------------------------------------
def forty_twenty(seed=11):
    return make_net(seed, "random", "chord", 40, 20)


def state(net):
    """What a refused join or leave must leave as it found it."""
    return (
        observed(net),
        sorted(net.nodes),
        list(net.mobile_keys),
        sorted(net._mobile_set),
        net.num_mobile,
        net.mobile_layer.keys.tolist(),
        {k: net.mobile_layer.neighbors_of(k) for k in net.mobile_layer.keys.tolist()},
        dict(net.placement._current),
        net.placement._next_port,
        net.rng.stream("placement").bit_generator.state,
        {n: c.value for n, c in net.telemetry.metrics.counters.items()},
    )


class TestIntegralKeys:
    def test_float_join_is_refused_with_nothing_changed(self):
        net, twin = forty_twenty(), forty_twenty()
        with pytest.raises(ValueError, match="integer"):
            net.join_mobile_node(1234.0)
        assert state(net) == state(twin)
        net.join_mobile_node(1234)  # a retry with the int is not "already present"
        twin.join_mobile_node(1234)
        assert state(net) == state(twin)

    def test_float_leave_is_refused_with_nothing_changed(self):
        net, twin = forty_twenty(), forty_twenty()
        key = net.mobile_keys[3]
        with pytest.raises(ValueError, match="integer"):
            net.leave_mobile_node(float(key))
        assert state(net) == state(twin)
        net.leave_mobile_node(key)
        twin.leave_mobile_node(key)
        assert state(net) == state(twin)

    @pytest.mark.parametrize("kind", [np.uint64, np.int64])
    def test_numpy_keys_equal_the_int_run(self, kind):
        net, twin = forty_twenty(), forty_twenty()
        joiner, leaver = 1234, net.mobile_keys[5]
        node = net.join_mobile_node(kind(joiner))
        twin.join_mobile_node(joiner)
        net.leave_mobile_node(kind(leaver))
        twin.leave_mobile_node(leaver)
        assert type(node.key) is int
        assert all(type(k) is int for k in net.nodes)
        assert all(type(k) is int for k in net.mobile_keys)
        assert state(net) == state(twin)


def test_scalar_attach_draws_what_a_batch_of_one_draws(topology):
    """``attach`` draws one scalar; ``attach_many([h])`` draws
    ``size=1``.  Same routers, same ports, same stream state after."""
    one, batch = Placement(topology, RngStreams(3)), Placement(topology, RngStreams(3))
    for h in range(10_000):
        assert one.attach(h) == batch.attach_many([h])[0]
    assert (
        one._rng.stream("placement").bit_generator.state
        == batch._rng.stream("placement").bit_generator.state
    )
