"""Loop versions of the network set-up kernels.

A materialised pool per target for the registrant draws, one scalar draw
per coin in ``_connect_domain``, a dict-of-dicts graph frozen vertex by
vertex, and one capacity and one placement draw per node.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core import BristleNetwork
from repro.net.address import NetworkAddress
from repro.net.graph import Graph
from repro.net.transit_stub import TransitStubTopology
from repro.sim.rng import RngStreams


class DictGraph:
    """``repro.net.Graph``'s construction as a dict-of-dicts: one checked
    store per ``add_edge`` and a per-vertex loop writing the CSR rows
    (neighbour ids ascending) at ``freeze``."""

    def __init__(self) -> None:
        self._adj: List[Dict[int, float]] = []
        self.num_edges = 0
        self.frozen = False

    @property
    def num_vertices(self) -> int:
        return len(self._adj)

    def add_vertices(self, count: int) -> List[int]:
        start = len(self._adj)
        self._adj.extend({} for _ in range(count))
        return list(range(start, start + count))

    def add_edge(self, u: int, v: int, weight: float) -> None:
        assert not self.frozen and u != v and weight > 0
        if v not in self._adj[u]:
            self.num_edges += 1
        self._adj[u][v] = self._adj[v][u] = float(weight)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj[u]

    def freeze(self) -> None:
        n = len(self._adj)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum([len(nbrs) for nbrs in self._adj], out=indptr[1:])
        indices = np.empty(indptr[-1], dtype=np.int64)
        weights = np.empty(indptr[-1], dtype=np.float64)
        pos = 0
        for nbrs in self._adj:
            for v in sorted(nbrs):
                indices[pos], weights[pos] = v, nbrs[v]
                pos += 1
        self._csr = (indptr, indices, weights)
        self.frozen = True

    def csr(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self._csr

    def is_connected(self) -> bool:
        """Depth-first search from vertex 0."""
        seen = {0} if self._adj else set()
        stack = list(seen)
        while stack:
            for v in self._adj[stack.pop()]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return len(seen) == len(self._adj)


def scalar_nodes(
    net: BristleNetwork,
    capacities: Optional[Mapping[int, float]] = None,
    max_capacity: int = 15,
) -> Tuple[Dict[int, float], Dict[int, NetworkAddress], RngStreams]:
    """``BristleNetwork.__init__``'s node loop, replayed on fresh streams of
    ``net``'s seed: per key (stationary, then mobile) one ``"capacities"``
    draw unless ``capacities`` names it, then one ``"placement"`` draw and
    the next port.  Returns capacity and address per key, and the streams."""
    rng = RngStreams(net.config.seed)
    points = net.topology.attachment_points()
    caps: Dict[int, float] = {}
    addrs: Dict[int, NetworkAddress] = {}
    for port, key in enumerate(net.stationary_keys + net.mobile_keys, start=1):
        if capacities is not None and key in capacities:
            caps[key] = float(capacities[key])
        else:
            caps[key] = float(rng.stream("capacities").integers(1, max_capacity + 1))
        router = points[rng.randint("placement", 0, len(points))]
        addrs[key] = NetworkAddress(router=router, port=port, epoch=0)
    return caps, addrs, rng


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
    graph: "Graph | DictGraph",
    members: Sequence[int],
    rng: np.random.Generator,
    weight_bounds: Tuple[float, float],
    extra_edge_prob: float,
) -> None:
    """``transit_stub._connect_domain`` with one scalar draw per coin and
    per weight and one ``add_edge`` per edge; a pair on the spanning path
    (the only edges among fresh members) flips no coin."""
    members = list(members)
    if len(members) <= 1:
        return
    order = list(members)
    rng.shuffle(order)
    on_path = set()
    for a, b in zip(order, order[1:]):
        graph.add_edge(a, b, float(rng.uniform(*weight_bounds)))
        on_path |= {(a, b), (b, a)}
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            u, v = members[i], members[j]
            if (u, v) not in on_path and rng.random() < extra_edge_prob:
                graph.add_edge(u, v, float(rng.uniform(*weight_bounds)))


def topology_digest(topo: TransitStubTopology) -> str:
    """Hash of the sorted edge list with exact weights."""
    h = hashlib.sha256()
    for u, v, w in sorted(topo.graph.edges()):
        h.update(f"{u},{v},{w!r};".encode())
    return h.hexdigest()[:16]
