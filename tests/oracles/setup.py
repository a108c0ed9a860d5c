"""Loop versions of the network set-up kernels (parent of issue 12)."""

from __future__ import annotations

import hashlib
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core import BristleNetwork
from repro.net.graph import Graph
from repro.net.transit_stub import TransitStubTopology


def pool_random_registrations(
    net: BristleNetwork,
    registry_size: Optional[int] = None,
    *,
    only_keys: Optional[Sequence[int]] = None,
) -> None:
    """``BristleNetwork.setup_random_registrations`` with the pool of the
    other N-1 members materialised per target and sampled directly."""
    size = registry_size if registry_size is not None else net.registry_size_for(0)
    all_keys = net.stationary_keys + net.mobile_keys
    targets = list(only_keys) if only_keys is not None else net.mobile_keys
    for mk in targets:
        pool = [k for k in all_keys if k != mk]
        chosen = net.rng.sample("registrations", pool, min(size, len(pool)))
        for c in chosen:
            net.registrations.register(c, mk, now=net.now)


def connect_domain_pairwise(
    graph: Graph,
    members: Sequence[int],
    rng: np.random.Generator,
    weight_bounds: Tuple[float, float],
    extra_edge_prob: float,
) -> None:
    """``transit_stub._connect_domain`` with one scalar draw per coin and
    per weight, asking the graph itself whether a pair is already wired."""
    members = list(members)
    if len(members) <= 1:
        return
    order = list(members)
    rng.shuffle(order)
    for a, b in zip(order, order[1:]):
        graph.add_edge(a, b, float(rng.uniform(*weight_bounds)))
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            u, v = members[i], members[j]
            if not graph.has_edge(u, v) and rng.random() < extra_edge_prob:
                graph.add_edge(u, v, float(rng.uniform(*weight_bounds)))


def topology_digest(topo: TransitStubTopology) -> str:
    """Hash of the sorted edge list with exact weights."""
    h = hashlib.sha256()
    for u, v, w in sorted(topo.graph.edges()):
        h.update(f"{u},{v},{w!r};".encode())
    return h.hexdigest()[:16]
