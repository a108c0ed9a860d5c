"""Figure 3: per-stationary-node responsibility, member-only vs
non-member-only LDTs.

The paper plots the analytic responsibility values for ``N = 1,048,576``
as M/N grows: ``O((M/(N−M))·(log N)²)`` for the non-member-only protocol
versus ``O((M/(N−M))·log N)`` for Bristle's member-only choice, showing
the non-member-only load "increases exponentially" while member-only
"drastically reduces the responsibility".

Besides the analytic curves this module cross-checks the claim
empirically: it builds actual member-only LDTs over a simulated
population, measures how many location-handling duties land on each
stationary node, and verifies the measured member-only load tracks the
analytic curve's shape.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

import numpy as np

from ..core.analysis import (
    responsibility_curves,
    responsibility_member_only,
    responsibility_non_member_only,
)
from ..core.bristle import BristleNetwork
from ..core.config import BristleConfig
from ..core.ldt_nonmember import build_non_member_tree
from .common import ResultTable

__all__ = ["run_fig3", "run_fig3_empirical", "run_fig3_tree_sizes", "DEFAULT_FRACTIONS"]

#: The Figure-3 x-axis: M/N stepped linearly.
DEFAULT_FRACTIONS = tuple(round(0.05 * i, 2) for i in range(1, 20))  # 5%..95%


def run_fig3(
    num_nodes: int = 1_048_576,
    fractions: Sequence[float] = DEFAULT_FRACTIONS,
) -> ResultTable:
    """The analytic Figure-3 curves (the paper's N = 1,048,576)."""
    curves = responsibility_curves(num_nodes, fractions)
    table = ResultTable(
        title="Figure 3 — responsibility vs M/N (analytic)",
        columns=["M/N (%)", "member-only", "non-member-only", "ratio"],
        notes=[f"N = {num_nodes} (paper: 1,048,576); responsibility = avg location "
               "entries handled per stationary node"],
    )
    for frac, mem, non in zip(fractions, curves["member_only"], curves["non_member_only"]):
        table.add_row(
            **{
                "M/N (%)": round(100 * frac, 1),
                "member-only": float(mem),
                "non-member-only": float(non),
                "ratio": float(non / mem) if mem else math.nan,
            }
        )
    return table


def run_fig3_empirical(
    num_stationary: int = 400,
    mobile_fractions: Sequence[float] = (0.2, 0.4, 0.6, 0.8),
    seed: int = 11,
) -> ResultTable:
    """Measured member-only responsibility on real LDTs.

    For each M/N the network is built, registrations derive from the
    mobile layer's state replication, and each stationary node's
    *responsibility* is counted as the number of (mobile-node, duty)
    pairs it carries: location records it stores plus LDT memberships it
    holds.  The analytic member-only value is printed alongside.
    """
    table = ResultTable(
        title="Figure 3 — member-only responsibility (measured)",
        columns=[
            "M/N (%)",
            "measured/node",
            "analytic member-only",
            "analytic non-member-only",
        ],
        notes=[f"{num_stationary} stationary nodes; registrations from overlay state"],
    )
    for frac in mobile_fractions:
        num_mobile = int(round(num_stationary * frac / (1 - frac)))
        n = num_stationary + num_mobile
        cfg = BristleConfig(seed=seed, naming="scrambled", replication=1)
        net = BristleNetwork(cfg, num_stationary, num_mobile, router_count=120)
        net.setup_registrations_from_overlay()
        # Count duties per stationary node: directory records + LDT slots.
        duties: Dict[int, int] = {k: 0 for k in net.stationary_keys}
        for holder, count in net.directory.holder_load().items():
            duties[holder] = duties.get(holder, 0) + count
        for mk in net.mobile_keys:
            for entry in net.nodes[mk].registry_entries():
                if not net.is_mobile(entry.key):
                    duties[entry.key] = duties.get(entry.key, 0) + 1
        measured = float(np.mean(list(duties.values())))
        table.add_row(
            **{
                "M/N (%)": round(100 * frac, 1),
                "measured/node": measured,
                "analytic member-only": responsibility_member_only(n, num_mobile),
                "analytic non-member-only": responsibility_non_member_only(n, num_mobile),
            }
        )
    return table


def run_fig3_tree_sizes(
    num_stationary: int = 300,
    mobile_fractions: Sequence[float] = (0.2, 0.4, 0.6, 0.8),
    seed: int = 12,
) -> ResultTable:
    """Member-only vs non-member-only trees, actually built and measured.

    For each M/N both tree kinds are constructed over the same population
    and registries; the table reports the mean participating-node count
    per tree (the paper's ``S(τ)``) and the resulting per-stationary-node
    responsibility (tree slots landing on stationary nodes / stationary
    population) — the measured counterpart of Figure 3's two curves.
    """
    table = ResultTable(
        title="Figure 3 — tree sizes and responsibility (measured, both kinds)",
        columns=[
            "M/N (%)",
            "member tree size",
            "non-member tree size",
            "forwarders/tree",
            "member resp/node",
            "non-member resp/node",
            "resp ratio",
        ],
        notes=[
            f"{num_stationary} stationary nodes; registry = ceil(log2 N); "
            "responsibility = stationary tree slots per stationary node",
        ],
    )
    for frac in mobile_fractions:
        num_mobile = int(round(num_stationary * frac / (1 - frac)))
        cfg = BristleConfig(seed=seed, naming="scrambled", replication=1)
        net = BristleNetwork(cfg, num_stationary, num_mobile, router_count=150)
        net.setup_random_registrations()

        member_sizes: List[int] = []
        non_member_sizes: List[int] = []
        forwarder_counts: List[int] = []
        member_duty: Dict[int, int] = {}
        non_member_duty: Dict[int, int] = {}

        for mk in net.mobile_keys:
            registry_keys = [e.key for e in net.nodes[mk].registry_entries()]
            if not registry_keys:
                continue
            # Member-only tree (Fig 4).
            tree = net.build_ldt_for(mk)
            member_sizes.append(tree.num_members)
            for key in tree.keys[1:]:
                if not net.is_mobile(key):
                    member_duty[key] = member_duty.get(key, 0) + 1
            # Non-member-only (Scribe-style) tree over the stationary layer.
            nm = build_non_member_tree(mk, registry_keys, net.stationary_layer)
            non_member_sizes.append(nm.size)
            forwarder_counts.append(len(nm.forwarders))
            for key in nm.all_nodes:
                if not net.is_mobile(key):
                    non_member_duty[key] = non_member_duty.get(key, 0) + 1

        member_resp = sum(member_duty.values()) / num_stationary
        non_member_resp = sum(non_member_duty.values()) / num_stationary
        table.add_row(
            **{
                "M/N (%)": round(100 * frac, 1),
                "member tree size": float(np.mean(member_sizes)),
                "non-member tree size": float(np.mean(non_member_sizes)),
                "forwarders/tree": float(np.mean(forwarder_counts)),
                "member resp/node": member_resp,
                "non-member resp/node": non_member_resp,
                "resp ratio": non_member_resp / member_resp if member_resp else math.nan,
            }
        )
    return table
