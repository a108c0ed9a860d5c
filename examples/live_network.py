#!/usr/bin/env python
"""A live Bristle network under continuous mobility.

The network owns the event clock (``net.engine``); the timed protocol,
the mobility process and the early-binding refresh all schedule on it.
This example runs a roaming swarm for 300 virtual time units, sampling
cache warmness and message budgets along the way, then issues
discoveries against the moving population.

Run:  python examples/live_network.py
"""

from repro.core import (
    BristleConfig,
    BristleNetwork,
    BristleProtocol,
    EarlyBinding,
    MobilityProcess,
)


def cache_warmness(net: BristleNetwork) -> float:
    """Fraction of (registrant, mobile) caches holding the current address."""
    warm = total = 0
    for mk in net.mobile_keys:
        node = net.nodes[mk]
        for entry in node.registry_entries():
            total += 1
            cached = net.nodes[entry.key].state.get(mk)
            if cached is not None and cached.addr == node.address:
                warm += 1
    return warm / total if total else 1.0


def main() -> None:
    net = BristleNetwork(
        BristleConfig(seed=11, naming="scrambled"), num_stationary=80, num_mobile=60
    )
    net.setup_random_registrations(registry_size=8)
    # Latency scaled so protocol waves finish long before the next move.
    protocol = BristleProtocol(net, latency_scale=1e-3)
    binding = EarlyBinding(net)
    binding.start()
    mobility = MobilityProcess(
        net=net,
        rate=0.02,          # each mobile node moves ~once per 50 units
        advertise=False,
        on_move=lambda rep: protocol.advertise(rep.key),
    )
    mobility.start()
    print(f"live network: {net.num_nodes} nodes on "
          f"{net.topology.num_routers} routers, "
          f"{len(net.mobile_keys)} roaming\n")

    adverts = protocol.metrics.counter("messages.advertise")
    print(f"{'time':>6} | {'moves':>5} | {'cache warm':>10} | "
          f"{'adverts':>8} | {'refresh msgs':>12}")
    print("-" * 55)
    for t in (50, 100, 150, 200, 250, 300):
        net.advance_to(float(t))
        print(f"{t:>6} | {mobility.moves_performed:>5} | "
              f"{cache_warmness(net):>9.0%} | {adverts.value:>8} | "
              f"{binding.stats.total_messages:>12}")

    # Reactive discoveries against the moving population.
    mobility.stop()
    binding.stop()
    hits = 0
    rtts = []
    done = []
    for mk in net.mobile_keys[:20]:
        protocol.discover(net.stationary_keys[0], mk, on_complete=done.append)
    net.engine.run()
    for ex in done:
        if ex.address == net.nodes[ex.target].address:
            hits += 1
        rtts.append(ex.rtt)
    print(f"\ndiscoveries: {hits}/{len(done)} resolved to the current "
          f"address, mean RTT {sum(rtts) / len(rtts):.3f} virtual units")
    print("every node kept its hash key through "
          f"{mobility.moves_performed} moves — end-to-end identity held.")


if __name__ == "__main__":
    main()
