"""Extension experiment: early vs late binding, and the cache-staleness
sweep (§2.3.2).

Two questions the paper raises but does not quantify:

* **p_stale sweep** — how does route cost degrade as cached mobile
  addresses go stale?  ``p_stale = 0`` is the ideal early-binding steady
  state (every cache warm), ``p_stale = 1`` the cold-cache worst case of
  Figure 7.  The curve between them is the payoff of proactive LDT
  advertisement.
* **binding policy cost** — message budget of early binding (periodic
  advertisement + re-registration for everyone) vs late binding (one
  discovery per cache miss), across lookup rates: early binding wins
  when state is consulted often, late when rarely.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence

from ..core.bristle import BristleNetwork
from ..core.config import BristleConfig
from ..core.statebinding import EarlyBinding, LateBinding
from .common import ResultTable
from .fig7_naming import RoutePoint, measure_routes
from .parallel import sweep_map

__all__ = [
    "StalenessParams",
    "run_staleness_sweep",
    "BindingCostParams",
    "run_binding_cost",
]


@dataclasses.dataclass(frozen=True)
class StalenessParams:
    num_stationary: int = 200
    num_mobile: int = 200
    routes: int = 600
    p_stale_values: Sequence[float] = (0.0, 0.25, 0.5, 0.75, 1.0)
    router_count: int = 250
    seed: int = 27


def run_staleness_sweep(params: Optional[StalenessParams] = None) -> ResultTable:
    """Route hops/cost as a function of cache staleness probability."""
    p = params if params is not None else StalenessParams()
    table = ResultTable(
        title="Extension — route cost vs cache staleness (early-binding payoff)",
        columns=["p_stale", "mean hops", "mean cost", "mean resolutions", "cost vs warm (x)"],
        notes=[
            f"{p.num_stationary}+{p.num_mobile} nodes, {p.routes} "
            "stationary→stationary routes per point",
        ],
    )
    # One network and one pair sample for every level: the curve moves
    # only with p_stale.
    point = RoutePoint(
        "scrambled",
        p.num_stationary,
        p.num_mobile,
        p.routes,
        p.seed,
        p.router_count,
        p_stale=tuple(p.p_stale_values),
    )
    levels = sweep_map(measure_routes, [point])[0]["levels"]
    for p_stale, level in zip(p.p_stale_values, levels):
        warm_cost = levels[0]["cost"]  # the first level's, as listed
        table.add_row(
            **{
                "p_stale": p_stale,
                "mean hops": level["hops"],
                "mean cost": level["cost"],
                "mean resolutions": level["resolutions"],
                "cost vs warm (x)": level["cost"] / warm_cost if warm_cost else float("nan"),
            }
        )
    return table


@dataclasses.dataclass(frozen=True)
class BindingCostParams:
    num_stationary: int = 60
    num_mobile: int = 40
    registry_size: int = 6
    horizon: float = 100.0
    #: total lookups issued over the horizon, per sweep point
    lookup_counts: Sequence[int] = (50, 500, 2000)
    #: per-mobile-node moves per unit time (staleness driver)
    move_rate: float = 0.05
    seed: int = 28


def run_binding_cost(params: Optional[BindingCostParams] = None) -> ResultTable:
    """Early vs late binding under mobility: message budget *and*
    address correctness.

    Mobile nodes move throughout the horizon.  Early binding pays a
    workload-independent refresh budget but keeps cached addresses at
    most ``refresh_period`` old; late binding pays one discovery per
    lease miss but serves addresses up to ``state_ttl`` stale between
    misses.  The table reports both costs and the fraction of lookups
    that returned the node's *current* address — the two-sided trade-off
    §2.3.2's dual design acknowledges.
    """
    p = params if params is not None else BindingCostParams()
    table = ResultTable(
        title="Extension — early vs late binding: messages and correctness",
        columns=[
            "lookups",
            "early msgs",
            "late msgs",
            "early current-addr rate",
            "late current-addr rate",
            "cheaper policy",
        ],
        notes=[
            f"{p.num_stationary}+{p.num_mobile} nodes, registry "
            f"{p.registry_size}, horizon {p.horizon}, per-node move rate "
            f"{p.move_rate}",
        ],
    )
    for n_lookups in p.lookup_counts:
        results = {}
        for policy_name in ("early", "late"):
            cfg = BristleConfig(
                seed=p.seed, naming="scrambled", state_ttl=30.0, refresh_period=10.0
            )
            net = BristleNetwork(
                cfg, p.num_stationary, p.num_mobile, router_count=120
            )
            net.setup_random_registrations(registry_size=p.registry_size)
            policy = EarlyBinding(net) if policy_name == "early" else LateBinding(net)
            policy.start()
            from ..core.mobility import MobilityProcess
            from ..core.protocol import BristleProtocol

            # Early binding includes the paper's *update* operation: every
            # move is multicast down the LDT (a timed wave that refreshes
            # registrants' caches).  Late binding relies purely on
            # reactive discovery.
            # Latency scaled so a wave completes in ≪ the mean inter-move
            # gap (raw path weights are O(100) vs a horizon of O(100)).
            proto = BristleProtocol(net, latency_scale=1e-3)
            # Counter registries may be shared across experiments (ambient
            # telemetry session), so measure advertisement traffic as a
            # delta from here rather than an absolute value.
            advert_base = proto.metrics.counter("messages.advertise").value
            on_move = None
            if policy_name == "early":
                on_move = lambda rep: proto.advertise(rep.key)  # noqa: E731
            mobility = MobilityProcess(
                net=net, rate=p.move_rate, advertise=False, on_move=on_move
            )
            mobility.start()
            pairs = [
                (entry.key, mk)
                for mk in net.mobile_keys
                for entry in net.nodes[mk].registry_entries()
            ]
            # Registration replicates the state-pair (§2.3.1), so every
            # registrant starts with the mobile node's initial address.
            for registrant, mk in pairs:
                net.nodes[registrant].state.renew(
                    mk, net.nodes[mk].address, 0.0, net.config.state_ttl
                )
            gen = net.rng.stream("binding.lookups")
            times = sorted(float(gen.uniform(0, p.horizon)) for _ in range(n_lookups))
            idx = gen.integers(0, len(pairs), size=n_lookups)
            current = 0
            for t, i in zip(times, idx):
                net.advance_to(t)
                registrant, mk = pairs[int(i)]
                policy.lookup(registrant, mk)
                cached = net.nodes[registrant].state.get(mk)
                if cached is not None and cached.addr == net.nodes[mk].address:
                    current += 1
            net.advance_to(p.horizon)
            advert_msgs = (
                proto.metrics.counter("messages.advertise").value - advert_base
            )
            results[policy_name] = {
                "messages": policy.stats.total_messages + advert_msgs,
                "current": current / n_lookups,
            }
        early = results["early"]
        late = results["late"]
        table.add_row(
            **{
                "lookups": n_lookups,
                "early msgs": early["messages"],
                "late msgs": late["messages"],
                "early current-addr rate": early["current"],
                "late current-addr rate": late["current"],
                "cheaper policy": "late" if late["messages"] < early["messages"] else "early",
            }
        )
    return table
