"""Extension experiment: timed LDT advertisement latency.

Figure 8 reports LDT *structure*; this extension measures what the
structure buys in the time domain.  Using the message-level protocol
driver, each mobile node's address update is multicast down its LDT with
per-message latency equal to the underlay shortest-path weight, and the
**makespan** (time until the last registrant holds the new address) is
recorded across capacity mixes — the timed counterpart of the paper's
``O(log_k log N)`` dissemination claim, and the cost of the degenerate
MAX = 1 chains.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence

from ..core.bristle import BristleNetwork
from ..core.config import BristleConfig
from ..core.protocol import BristleProtocol
from ..sim.metrics import summarize
from .common import ResultTable

__all__ = ["AdvertisementLatencyParams", "run_advertisement_latency"]


@dataclasses.dataclass(frozen=True)
class AdvertisementLatencyParams:
    num_stationary: int = 60
    num_mobile: int = 40
    registry_size: int = 12
    router_count: int = 150
    max_values: Sequence[int] = (1, 2, 4, 8, 15)
    seed: int = 19


def run_advertisement_latency(
    params: Optional[AdvertisementLatencyParams] = None,
) -> ResultTable:
    """Makespan and per-registrant delay of timed LDT multicasts."""
    p = params if params is not None else AdvertisementLatencyParams()
    table = ResultTable(
        title="Extension — timed LDT advertisement latency vs capacity mix",
        columns=[
            "MAX",
            "mean makespan",
            "p95 makespan",
            "mean depth",
            "messages/wave",
            "makespan vs MAX=15 (x)",
        ],
        notes=[
            f"{p.num_stationary}+{p.num_mobile} nodes, registry "
            f"{p.registry_size}, latency = underlay shortest-path weight",
        ],
    )
    baselines = {}
    for max_cap in p.max_values:
        cfg = BristleConfig(seed=p.seed, naming="scrambled")
        net = BristleNetwork(
            cfg,
            p.num_stationary,
            p.num_mobile,
            router_count=p.router_count,
            max_capacity=max_cap,
        )
        net.setup_random_registrations(registry_size=p.registry_size)
        proto = BristleProtocol(net)
        makespans = []
        depths = []
        messages = []
        for mk in net.mobile_keys:
            tree = net.build_ldt_for(mk)
            wave = proto.advertise(mk, tree=tree)
            net.engine.run()
            assert wave.complete
            makespans.append(wave.makespan)
            depths.append(tree.depth)
            messages.append(tree.message_count)
        # All percentile/mean reporting flows through the shared summary
        # helper (same NumPy conventions, one code path repo-wide).
        makespan_summary = summarize(makespans)
        baselines[max_cap] = makespan_summary.mean
        table.add_row(
            **{
                "MAX": max_cap,
                "mean makespan": makespan_summary.mean,
                "p95 makespan": makespan_summary.p95,
                "mean depth": summarize(depths).mean,
                "messages/wave": summarize(messages).mean,
                "makespan vs MAX=15 (x)": 0.0,  # filled below
            }
        )
    reference = baselines.get(max(p.max_values), 1.0) or 1.0
    for row in table.rows:
        row["makespan vs MAX=15 (x)"] = row["mean makespan"] / reference
    return table
