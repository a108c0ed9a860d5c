"""Fig 2's one-pass walk equals the two-pass routing it replaced.

``tests/oracles/fig2.py`` keeps the routing as it was: records first, each
priced through ``network_distance_between_keys``, then a second loop for
the telemetry.  Twin networks (same seed) run the same op sequence — both
routing policies at several staleness levels, tracing switched on and off,
joins, leaves and moves in between — one through ``repro.core.routing``,
one through the reference.  Every route must return the same records, and
the networks must end with the same metrics, ledger, per-holder resolution
load, tracer events and ``routing.stale`` stream position.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BristleConfig, BristleNetwork
from repro.core.routing import route_preferring_resolved, route_with_resolution
from repro.sim import Telemetry, Tracer
from repro.sim.nodestats import KINDS

from .oracles.fig2 import (
    reference_route_preferring_resolved,
    reference_route_with_resolution,
)

POLICIES = {
    "resolve": (route_with_resolution, reference_route_with_resolution),
    "prefer_resolved": (route_preferring_resolved, reference_route_preferring_resolved),
}

NETWORKS = st.fixed_dictionaries(
    {
        "seed": st.integers(1, 10**6),
        "naming": st.sampled_from(["clustered", "scrambled"]),
        "stationary_layer_overlay": st.sampled_from(["chord", "pastry"]),
        "num_stationary": st.integers(4, 30),
        "num_mobile": st.integers(2, 20),
    }
)

_ANY = st.integers(0, 2**32 - 1)
OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("route"),
            st.sampled_from(sorted(POLICIES)),
            st.sampled_from([None, 0.0, 0.37, 1.0]),
            _ANY,
            _ANY,
        ),
        st.tuples(st.just("trace"), st.booleans()),
        st.tuples(st.just("join"), _ANY),
        st.tuples(st.just("leave"), _ANY),
        st.tuples(st.just("move"), _ANY),
    ),
    min_size=1,
    max_size=30,
)


def make_net(seed, naming, stationary_layer_overlay, num_stationary, num_mobile):
    cfg = BristleConfig(
        seed=seed, naming=naming, stationary_layer_overlay=stationary_layer_overlay
    )
    return BristleNetwork(
        cfg,
        num_stationary,
        num_mobile,
        router_count=60,
        telemetry=Telemetry(tracer=Tracer(enabled=False)),
    )


def apply(net, op, reference):
    """Run ``op`` on ``net`` — a route through the walk (``reference`` 0) or
    through the two-pass oracle (1); a route returns what a caller sees."""
    kind, *args = op
    if kind == "route":
        policy, p_stale, s, t = args
        members = net.stationary_keys + net.mobile_keys
        route = POLICIES[policy][reference]
        trace = route(net, members[s % len(members)], t, p_stale=p_stale)
        return (trace.source, trace.target, trace.records, trace.resolutions, trace.success)
    if kind == "trace":
        net.telemetry.tracer.enabled = args[0]
    elif kind == "join":
        if args[0] not in net.nodes:
            net.join_mobile_node(args[0])
    elif kind == "leave":
        if len(net.mobile_keys) > 1:
            net.leave_mobile_node(net.mobile_keys[args[0] % len(net.mobile_keys)])
    else:
        net.move(net.mobile_keys[args[0] % len(net.mobile_keys)])
    return None


def observed(net):
    """Everything the routing leaves behind outside its return value."""
    tel = net.telemetry
    ledger = tel.nodeload
    # repr: an empty histogram's quantiles are NaN, which is not == itself.
    snapshot = {name: repr(v) for name, v in tel.metrics.snapshot().items()}
    events = [
        (r.time, r.category, tuple(f for f in r.fields if not f[0].startswith("wall")))
        for r in tel.tracer
    ]
    return (
        snapshot,
        {kind: ledger.counts(kind) for kind in KINDS},
        dict(net.resolution_load),
        events,
        net.rng.random("routing.stale"),
    )


@settings(max_examples=40, deadline=None)
@given(params=NETWORKS, ops=OPS)
def test_walk_equals_two_pass_reference(params, ops):
    walk, reference = make_net(**params), make_net(**params)
    for op in ops:
        assert apply(walk, op, 0) == apply(reference, op, 1), op
    assert observed(walk) == observed(reference)


@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_traced_detour_route_matches(policy):
    """A fixed traced run at p = 1, so the span path and detour events are
    always exercised, whatever hypothesis draws."""
    params = dict(
        seed=3,
        naming="scrambled",
        stationary_layer_overlay="pastry",
        num_stationary=20,
        num_mobile=15,
    )
    walk, reference = make_net(**params), make_net(**params)
    ops = [("trace", True)] + [("route", policy, 1.0, i, 7919 * i) for i in range(30)]
    for op in ops:
        assert apply(walk, op, 0) == apply(reference, op, 1)
    seen = observed(walk)
    assert seen == observed(reference)
    assert sum(r.category == "discovery.detour" for r in walk.telemetry.tracer) > 0
    assert len(walk.telemetry.tracer.spans("route")) == 30


def test_dead_end_fallbacks_match():
    """``route_preferring_resolved``'s fallbacks — the overlay's own next
    hop, then a ring-distance sideways hop, then giving up — only run when
    no neighbour makes progress.  On both twins about half the neighbours
    are hidden, and so is every other answer of ``next_hop``, so each
    fallback runs, and some routes fail."""
    params = dict(
        seed=11,
        naming="scrambled",
        stationary_layer_overlay="chord",
        num_stationary=20,
        num_mobile=20,
    )
    nets = make_net(**params), make_net(**params)
    for net in nets:
        overlay = net.mobile_layer
        neighbors_of, next_hop = overlay.neighbors_of, overlay.next_hop
        overlay.neighbors_of = lambda k, f=neighbors_of: [
            c for c in f(k) if (c + k) % 2
        ]
        asked = []

        def every_other(current, target, f=next_hop, asked=asked):
            asked.append(current)
            return f(current, target) if len(asked) % 2 else None

        overlay.next_hop = every_other
    walk, reference = nets
    members = walk.stationary_keys + walk.mobile_keys
    outcomes = set()
    for i in range(len(members)):
        op = ("route", "prefer_resolved", 0.37, i, 7919 * i)
        ours = apply(walk, op, 0)
        assert ours == apply(reference, op, 1)
        outcomes.add(ours[-1])
    assert observed(walk) == observed(reference)
    assert len(asked) > 2 and outcomes == {True, False}
