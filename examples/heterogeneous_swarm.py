#!/usr/bin/env python
"""A live heterogeneous swarm: LDT adaptation + leases on the event engine.

Runs a Bristle network on the discrete-event engine with a Poisson
mobility process and early-binding refreshes, over a population whose
capacities range from modem-class (1 connection) to server-class (15).
Shows the Fig-4 advertisement trees adapting: strong nodes fan updates
out (shallow trees), weak swarms degenerate toward chains, and the
periodic refresh keeps every registrant's cached address warm despite
constant movement.

Run:  python examples/heterogeneous_swarm.py
"""

import numpy as np

from repro.core import (
    BristleConfig,
    BristleNetwork,
    EarlyBinding,
    MobilityProcess,
)


def build(max_capacity: int, seed: int) -> BristleNetwork:
    cfg = BristleConfig(
        seed=seed, naming="scrambled", state_ttl=30.0, refresh_period=10.0
    )
    net = BristleNetwork(
        cfg, num_stationary=60, num_mobile=60, router_count=150,
        max_capacity=max_capacity,
    )
    net.setup_random_registrations(registry_size=12)
    return net


def run_swarm(max_capacity: int, seed: int = 7) -> dict:
    net = build(max_capacity, seed)
    binding = EarlyBinding(net)
    binding.start()

    depths = []
    mobility = MobilityProcess(
        net=net,
        rate=0.03,
        advertise=True,
        on_move=lambda rep: depths.append(rep.ldt_depth),
    )
    mobility.start()
    net.advance_to(60.0)

    warm = total = 0
    for mk in net.mobile_keys:
        for entry in net.nodes[mk].registry_entries():
            total += 1
            warm += binding.lookup(entry.key, mk)
    return {
        "moves": mobility.moves_performed,
        "mean_ldt_depth": float(np.mean(depths)) if depths else 0.0,
        "max_ldt_depth": max(depths) if depths else 0,
        "warm_fraction": warm / total if total else 1.0,
        "refresh_messages": binding.stats.total_messages,
    }


def main() -> None:
    print(f"{'MAX capacity':>12} | {'moves':>6} | {'mean LDT depth':>14} | "
          f"{'max':>4} | {'caches warm':>11} | {'refresh msgs':>12}")
    print("-" * 76)
    for max_cap in (1, 2, 4, 8, 15):
        r = run_swarm(max_cap)
        print(f"{max_cap:>12} | {r['moves']:>6} | {r['mean_ldt_depth']:>14.2f} | "
              f"{r['max_ldt_depth']:>4} | {r['warm_fraction']:>10.0%} | "
              f"{r['refresh_messages']:>12}")
    print("\nweak swarms (MAX=1) advertise through chains — every update "
          "crawls node-to-node;\nheterogeneous swarms recruit their "
          "super-nodes as fan-out points and flatten the trees (Fig 8).")


if __name__ == "__main__":
    main()
