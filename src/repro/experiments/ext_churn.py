"""Extension experiment: maintenance overhead vs mobility rate.

Table 1's maintenance row, swept: as the per-node move rate grows, what
does each architecture pay to keep its state consistent?

* **Type A** — every move is a leave + re-join: ``2·⌈log₂N⌉`` messages,
  and the old key is orphaned until freshness timers expire.
* **Type B** — one care-of registration per move, but every subsequent
  data packet to the mover pays the triangular detour (deferred cost).
* **Bristle** — one publish (``replication`` messages) plus one LDT
  advertisement (``|R(i)|`` messages) per move; data packets then route
  directly after at most one discovery.

The experiment drives all three with the same Poisson move schedule and
reports messages per virtual-time unit plus the post-churn lookup cost.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence

import numpy as np

from ..core.routing import route_with_resolution
from ..overlay.factory import OVERLAY_NAMES, make_overlay
from ..overlay.keyspace import KeySpace
from ..sim.metrics import MetricsRegistry
from ..sim.rng import RngStreams
from ..workloads.churn import ChurnEventType, poisson_churn
from ..workloads.scenarios import build_comparison_scenario
from .common import ResultTable

__all__ = [
    "ChurnOverheadParams",
    "MembershipChurnParams",
    "run_churn_overhead",
    "run_membership_churn",
]


@dataclasses.dataclass(frozen=True)
class ChurnOverheadParams:
    num_stationary: int = 100
    num_mobile: int = 100
    duration: float = 50.0
    move_rates: Sequence[float] = (0.01, 0.05, 0.2)
    lookups: int = 200
    seed: int = 35


def run_churn_overhead(params: Optional[ChurnOverheadParams] = None) -> ResultTable:
    """Maintenance messages and lookup cost across move rates."""
    p = params if params is not None else ChurnOverheadParams()
    table = ResultTable(
        title="Extension — maintenance overhead vs mobility rate",
        columns=[
            "move rate",
            "moves",
            "Type A msgs/unit",
            "Type B msgs/unit",
            "Bristle msgs/unit",
            "Type A delivery",
            "Type B cost",
            "Bristle cost",
        ],
        notes=[
            f"{p.num_stationary}+{p.num_mobile} nodes over {p.duration} time "
            f"units; delivery/cost measured on {p.lookups} post-churn lookups "
            "to pre-churn keys",
        ],
    )
    for rate in p.move_rates:
        scenario = build_comparison_scenario(
            p.num_stationary, p.num_mobile, seed=p.seed
        )
        bristle = scenario.bristle
        bristle.setup_random_registrations()
        schedule = poisson_churn(
            sorted(scenario.mobile_hosts),
            duration=p.duration,
            rng=bristle.rng.spawn(f"churn.{rate}"),
            move_rate=rate,
        )
        known_keys = dict(scenario.type_a.key_of)

        bristle_msgs = 0
        type_a_msgs = 0
        type_b_msgs = 0
        moves = 0
        for event in schedule:
            if event.kind is not ChurnEventType.MOVE:
                continue
            moves += 1
            bristle.advance_to(event.time)
            report = bristle.move(event.host, advertise=True)
            bristle_msgs += report.total_messages
            type_a_msgs += scenario.type_a.move(event.host).join_messages
            scenario.type_b.move(event.host)
            type_b_msgs += 1

        # Post-churn lookups (to the keys correspondents learned at t=0).
        gen = bristle.rng.stream("churn.lookups")
        stationary_hosts = sorted(set(known_keys) - scenario.mobile_hosts)
        mobile_hosts = sorted(scenario.mobile_hosts)
        a_ok = 0
        b_costs = []
        bristle_costs = []
        for _ in range(p.lookups):
            src = stationary_hosts[int(gen.integers(len(stationary_hosts)))]
            host = mobile_hosts[int(gen.integers(len(mobile_hosts)))]
            if scenario.type_a.lookup(src, known_keys[host]).reached_intended:
                a_ok += 1
            rb = scenario.type_b.lookup(src, scenario.type_b.key_of[host])
            if rb.delivered:
                b_costs.append(rb.path_cost)
            tr = route_with_resolution(bristle, src, host)
            if tr.success:
                bristle_costs.append(tr.path_cost)
        table.add_row(
            **{
                "move rate": rate,
                "moves": moves,
                "Type A msgs/unit": type_a_msgs / p.duration,
                "Type B msgs/unit": type_b_msgs / p.duration,
                "Bristle msgs/unit": bristle_msgs / p.duration,
                "Type A delivery": a_ok / p.lookups,
                "Type B cost": float(np.mean(b_costs)) if b_costs else float("nan"),
                "Bristle cost": float(np.mean(bristle_costs))
                if bristle_costs
                else float("nan"),
            }
        )
    return table


@dataclasses.dataclass(frozen=True)
class MembershipChurnParams:
    num_nodes: int = 256
    events: int = 200
    seed: int = 47
    overlays: Sequence[str] = OVERLAY_NAMES


def run_membership_churn(
    params: Optional[MembershipChurnParams] = None,
) -> ResultTable:
    """Incremental repair cost of overlay membership churn, per substrate.

    Each overlay absorbs the same seeded join/leave schedule through its
    incremental ``add_node``/``remove_node`` path; the table reports the
    ``overlay.repaired_nodes`` counter — how many members' routing state one
    membership event touches — against the membership size ``N``.  The
    §2.3.3 expectation is an ``O(log N)`` (CAN: ``O(d)``) fraction of the
    overlay, which is what makes per-event repair beat a full rebuild.
    """
    p = params if params is not None else MembershipChurnParams()
    table = ResultTable(
        title="Extension — incremental repair cost under membership churn",
        columns=[
            "overlay",
            "N",
            "events",
            "repairs",
            "repaired nodes",
            "repaired/event",
            "repaired/event/N",
        ],
        notes=[
            f"{p.num_nodes} initial members, {p.events} alternating "
            "leave/join events per overlay; identical key schedule "
            f"(seed {p.seed}) for every substrate",
        ],
    )
    space = KeySpace(bits=32, digit_bits=4)
    for name in p.overlays:
        rng = RngStreams(p.seed)
        keys = space.random_keys(rng, "membership.initial", p.num_nodes)
        extra = space.random_keys(rng, "membership.joiners", p.events)
        joiners = [int(k) for k in extra if int(k) not in set(keys.tolist())]
        overlay = make_overlay(name, space)
        metrics = MetricsRegistry()
        overlay.bind_metrics(metrics)
        overlay.build([int(k) for k in keys])
        gen = rng.stream("membership.schedule")
        members = sorted(int(k) for k in keys)
        performed = 0
        for i in range(p.events):
            if i % 2 == 0 and len(members) > 2:
                victim = members.pop(int(gen.integers(len(members))))
                overlay.remove_node(victim)
                performed += 1
            elif joiners:
                newcomer = joiners.pop()
                overlay.add_node(newcomer)
                members.append(newcomer)
                members.sort()
                performed += 1
        repairs = metrics.counter("overlay.repairs").value
        repaired = metrics.counter("overlay.repaired_nodes").value
        per_event = repaired / performed if performed else 0.0
        table.add_row(
            **{
                "overlay": name,
                "N": p.num_nodes,
                "events": performed,
                "repairs": repairs,
                "repaired nodes": repaired,
                "repaired/event": per_event,
                "repaired/event/N": per_event / p.num_nodes,
            }
        )
    return table
