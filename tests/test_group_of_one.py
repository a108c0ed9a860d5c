"""A key is a group of one.

Every §2.3 advertisement step has a per-key entry point and a co-hosted
group entry point: the tree (``ldt_for`` / ``ldt_for_group``), the timed
wave (``advertise`` / ``advertise_many``) and the periodic refresh
(``EarlyBinding`` without / with ``host_groups``).  On the group ``(k,)``
the two must be indistinguishable, over random populations, registry
sizes and capacities.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BristleConfig, BristleNetwork, BristleProtocol, EarlyBinding
from repro.sim import MetricsRegistry

NETWORKS = st.fixed_dictionaries(
    {
        "seed": st.integers(1, 10**6),
        "num_stationary": st.integers(4, 30),
        "num_mobile": st.integers(1, 16),
        "registry_size": st.integers(0, 12),
        "max_capacity": st.integers(1, 15),
    }
)


def make_net(seed, num_stationary, num_mobile, registry_size, max_capacity):
    cfg = BristleConfig(
        seed=seed, naming="scrambled", state_ttl=30.0, refresh_period=10.0
    )
    net = BristleNetwork(
        cfg, num_stationary, num_mobile, router_count=60, max_capacity=max_capacity
    )
    if registry_size:
        net.setup_random_registrations(registry_size=registry_size)
    return net


def ldt_snapshot(net):
    # repr: an empty histogram's quantiles are NaN, which is not == itself.
    snap = net.telemetry.metrics.snapshot()
    return {name: repr(v) for name, v in snap.items() if name.startswith("ldt.")}


@settings(max_examples=12, deadline=None)
@given(params=NETWORKS)
def test_tree_and_representative(params):
    net = make_net(**params)
    for k in net.mobile_keys:
        scalar = net.build_ldt_for(k)
        assert net.build_ldt_for_group([k]) == (k, scalar)
        kept = net.ldt_for(k)
        assert kept == scalar
        # One kept tree, whichever entry point asks.
        rep, again = net.ldt_for_group([k])
        assert rep == k and again is kept
        assert net.move(k).ldt is (kept if net.nodes[k].registry else None)
    m = net.telemetry.metrics
    assert m.counter("ldt.cache_misses").value == len(net.mobile_keys)
    assert m.counter("ldt.cache_hits").value == len(net.mobile_keys)


@settings(max_examples=12, deadline=None)
@given(params=NETWORKS)
def test_timed_wave(params):
    # Twin networks, so both waves ask the path oracle the same questions
    # in the same order (a warm row can move a latency by one ulp).
    runs = []
    for start in ("advertise", "advertise_many"):
        net = make_net(**params)
        waves = []
        for k in net.mobile_keys:
            proto = BristleProtocol(net, metrics=MetricsRegistry())
            wave = proto.advertise(k) if start == "advertise" else proto.advertise_many([k])
            net.engine.run()
            assert wave.complete
            waves.append((wave.root_key, wave.arrival_times, wave.makespan))
        runs.append(waves)
    assert runs[0] == runs[1]


@settings(max_examples=8, deadline=None)
@given(params=NETWORKS, picks=st.lists(st.integers(0, 10**6), min_size=3, max_size=3))
def test_periodic_refresh(params, picks):
    runs = []
    for singleton_groups in (False, True):
        net = make_net(**params)
        groups = [[k] for k in net.mobile_keys] if singleton_groups else None
        binding = EarlyBinding(net, host_groups=groups)
        binding.start()
        net.advance_to(15.0)
        # Between two periods: a move (tree kept), a workload change (tree
        # re-derived) and a departure (tree evicted).
        mobile = net.mobile_keys
        net.move(mobile[picks[0] % len(mobile)])
        net.nodes[mobile[picks[1] % len(mobile)]].consume(1.5)
        if len(mobile) > 1:
            net.leave_mobile_node(mobile[picks[2] % len(mobile)])
        net.advance_to(35.0)
        runs.append((binding.stats, net.directory.snapshot(), ldt_snapshot(net)))
    assert runs[0] == runs[1]
