"""Location dissemination trees (LDTs) and the Fig-4 advertisement scheduler.

Every mobile node is associated with one LDT whose members are the nodes
registered to it (§2.3).  When the mobile node moves, its new address is
multicast down the tree.  In the protocol the tree is *not* stored — it is
the recursion structure of the state-advertisement algorithm of Fig 4,
re-derived from the registry's capacities and workloads at each
advertisement:

1. sort ``R(i)`` by capacity, decreasing;
2. if the advertising node is overloaded (``Avail_i − v ≤ 0``), hand the
   entire list to the single highest-capacity registry node, which
   continues the advertisement (chain step);
3. otherwise split the list round-robin into ``k = ⌊Avail_i / v⌋``
   partitions (so partition sizes are "nearly equal" and partition heads
   are the ``k`` highest-capacity nodes), send the new address to each
   head together with its partition remainder, and recurse.

The simulator represents one advertisement wave as an explicit, immutable
:class:`LDTree` so experiments can measure structure (Fig 8a: level
distribution), load balance (Fig 8b: partition sizes vs capacity) and cost
(Fig 9: per-edge network cost); and since a node's address never enters
Fig 4, ``BristleNetwork.move`` keeps a tree while its inputs stand.

Why one sort and no recursion reproduce Fig 4 exactly
-----------------------------------------------------
Python's ``sorted`` is stable, so after the first sort by
``(-capacity, secondary)`` every recursive re-sort of a subset is the
identity, and the pending set handed to any sender is an arithmetic
progression of positions in that order: round-robin partition ``j`` of the
progression ``(start a, stride s, count c)`` split ``k`` ways is the
progression ``(a + j·s, k·s, ⌊(c−j−1)/k⌋ + 1)``, and the overloaded
delegation is the ``k = 1`` case.  :func:`build_ldt` walks the sorted
positions once on that identity, :mod:`repro.core.ldt_forest` a whole
batch of registries one level per array pass; the literal recursion is
the reference in ``tests/oracles/ldt.py``.
"""

from __future__ import annotations

import dataclasses
import math
from collections import Counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "LDTMember",
    "LDTNode",
    "LDTree",
    "build_ldt",
    "ldt_depth_bound",
]


@dataclasses.dataclass(frozen=True)
class LDTMember:
    """Input descriptor for one participant in an advertisement wave.

    Attributes
    ----------
    key:
        Node key.
    capacity:
        The node's ``C`` (Fig 8 uses the number of network connections).
    used:
        Present workload ``Used`` — subtracted to get ``Avail``.
    """

    key: int
    capacity: float
    used: float = 0.0


@dataclasses.dataclass
class LDTNode:
    """One node's position in an LDT, as :attr:`LDTree.nodes` presents it.

    ``level`` is 0 for the root (the mobile node); registry members start
    at level 1 — Fig 8(a)'s "level-1 node" is thus the first member tier.
    ``assigned`` is the size of the partition handed to this node
    (including itself), i.e. Fig 8(b)'s "Number of Nodes Assigned";
    the root has ``assigned == 0``.
    """

    member: LDTMember
    level: int
    parent: Optional[int]
    children: List[int] = dataclasses.field(default_factory=list)
    assigned: int = 0

    @property
    def key(self) -> int:
        return self.member.key


#: The columns of an :class:`LDTree`, one entry per row each.
_COLUMNS = ("keys", "parent_rows", "levels", "assigned", "capacities", "used")


class LDTree:
    """One advertisement tree as a compact immutable columnar record.

    Row 0 is the root (the mobile node); rows ``1..n`` are the registry
    members in Fig-4 attach order — the DFS pre-order in which the
    recursion sends its messages.  Six parallel tuples hold the rows:
    ``keys``; ``parent_rows``, the row of the sender that reached each
    node (``-1`` for the root); ``levels`` (root 0); ``assigned``, the
    partition size handed to each node (root 0); ``capacities``; ``used``.

    What a wave's accounting reads is derived once, at construction:
    ``depth``, ``message_count`` (one per member), and the forwarding
    nodes with how many children each sends to, in row order
    (``interior_keys``, ``fanouts``).  The object views — :attr:`nodes`,
    :attr:`edges`, :meth:`children_of` — are built only when asked for.
    """

    __slots__ = _COLUMNS + (
        "depth", "message_count", "interior_keys", "fanouts", "_nodes",
    )

    def __init__(
        self,
        keys: Sequence[int],
        parent_rows: Sequence[int],
        levels: Sequence[int],
        assigned: Sequence[int],
        capacities: Sequence[float],
        used: Sequence[float],
    ) -> None:
        self.keys = tuple(keys)
        self.parent_rows = tuple(parent_rows)
        self.levels = tuple(levels)
        self.assigned = tuple(assigned)
        self.capacities = tuple(capacities)
        self.used = tuple(used)
        self.depth = max(self.levels)
        self.message_count = len(self.keys) - 1
        sent = [0] * len(self.keys)
        for row in self.parent_rows[1:]:
            sent[row] += 1
        self.interior_keys = tuple([k for k, c in zip(self.keys, sent) if c])
        self.fanouts = tuple([c for c in sent if c])
        self._nodes: Optional[Dict[int, LDTNode]] = None

    @classmethod
    def from_sorted(
        cls,
        keys: Sequence[int],
        parents: Sequence[int],
        levels: Sequence[int],
        assigned: Sequence[int],
        capacities: Sequence[float],
        used: Sequence[float],
    ) -> "LDTree":
        """The tree whose columns are given in *capacity-sort* order:
        index 0 the root, index ``p + 1`` the member at sort position
        ``p``, ``parents`` the sender indices in the same numbering.

        A sender precedes the heads it reaches and reaches them in
        ascending index, and ``assigned`` is a head's subtree size, so one
        ascending pass numbers the rows in DFS pre-order: a head takes its
        sender's next free row, which then skips the head's partition.
        """
        size = len(keys)
        rows = [0] * size
        free = [1] * size  # next unnumbered row under each sender
        for i in range(1, size):
            sender = parents[i]
            rows[i] = row = free[sender]
            free[sender] = row + assigned[i]
            free[i] = row + 1
        order = sorted(range(size), key=rows.__getitem__)
        senders = [-1] + [rows[p] for p in parents[1:]]
        columns = (keys, senders, levels, assigned, capacities, used)
        return cls(*[[column[i] for i in order] for column in columns])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LDTree):
            return NotImplemented
        return all(getattr(self, c) == getattr(other, c) for c in _COLUMNS)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        members, depth = self.message_count, self.depth
        return f"LDTree(root_key={self.keys[0]}, {members=}, {depth=})"

    @property
    def root_key(self) -> int:
        """The mobile node's key."""
        return self.keys[0]

    @property
    def num_members(self) -> int:
        """Registry members reached (excludes the root)."""
        return self.message_count

    @property
    def nodes(self) -> Dict[int, LDTNode]:
        """key → :class:`LDTNode` for the root and every member, in attach
        order (built on first use)."""
        nodes = self._nodes
        if nodes is None:
            nodes = self._nodes = {}
            for key, sender, level, assigned, capacity, used in zip(
                *[getattr(self, c) for c in _COLUMNS]
            ):
                parent = self.keys[sender] if sender >= 0 else None
                nodes[key] = LDTNode(
                    LDTMember(key, capacity, used), level, parent, assigned=assigned
                )
                if parent is not None:
                    nodes[parent].children.append(key)
        return nodes

    @property
    def edges(self) -> List[Tuple[int, int]]:
        """``(parent_key, child_key)`` pairs in send order — each is one
        ``_send`` message."""
        keys = self.keys
        return [(keys[s], k) for s, k in zip(self.parent_rows[1:], keys[1:])]

    def level_histogram(self) -> Dict[int, int]:
        """member count per level (root level 0 excluded)."""
        return dict(sorted(Counter(self.levels[1:]).items()))

    def children_of(self, key: int) -> List[int]:
        """Child keys of ``key`` in the tree."""
        return list(self.nodes[key].children)

    def edge_costs(self, distance: Callable[[int, int], float]) -> List[float]:
        """Cost of each tree edge under a network-distance function.

        Fig 9's metric: "E_ij is the minimal sum of path weights for the
        network links assembling the edge" — i.e. the shortest-path weight
        between the two endpoints.

        ``distance`` is either a scalar ``(a, b) -> cost`` callable or a
        batched oracle exposing ``route_costs(pairs)`` (``PathOracle`` /
        ``BristleNetwork.ldt_cost_oracle``); the batched form prices all
        edges in one multi-source Dijkstra pass instead of one scalar
        ``distance(a, b)`` query per edge.
        """
        edges = self.edges
        if not edges:
            return []
        route_costs = getattr(distance, "route_costs", None)
        if route_costs is not None:
            return [float(c) for c in np.asarray(route_costs(edges), dtype=float)]
        return [distance(a, b) for a, b in edges]

    def total_cost(self, distance: Callable[[int, int], float]) -> float:
        """Sum of all edge costs under ``distance`` (batched when the
        oracle form is passed — see :meth:`edge_costs`)."""
        return float(sum(self.edge_costs(distance)))

    def validate(self) -> None:
        """Internal consistency checks (used by property tests): every
        member appears exactly once, every member's sender sits one level
        above it, and the structure is a tree rooted at row 0."""
        size = len(self.keys)
        assert all(len(getattr(self, c)) == size for c in _COLUMNS), "ragged columns"
        assert self.parent_rows[0] == -1, "row 0 must be the root"
        assert self.levels[0] == 0, "root must be level 0"
        assert len(set(self.keys)) == size, "a node appears in two rows"
        for row in range(1, size):
            sender = self.parent_rows[row]
            assert 0 <= sender < size, f"row {row} has no sender in the tree"
            assert self.levels[row] == self.levels[sender] + 1, (
                f"edge {self.keys[sender]}->{self.keys[row]} skips levels"
            )


def _fig4_columns(
    avail: Sequence[float], unit_cost: float
) -> Tuple[List[int], List[int], List[int]]:
    """The Fig-4 schedule over capacity-sorted availabilities (root at
    index 0, sort position ``p`` at ``p + 1``) as ``(parents, levels,
    assigned)`` — the scalar twin of ``ldt_forest.build_forest_columns``.

    A sender at index ``i`` with stride ``s`` still has to reach the
    ``pending[i]`` members at ``i + s, i + 2s, ...`` (module docstring);
    it precedes them all, so one ascending walk meets every sender after
    whoever reached it.
    """
    size = len(avail)
    parents = [-1] * size
    levels = [0] * size
    assigned = [0] * size
    pending = [0] * size
    strides = [1] * size
    pending[0] = size - 1
    for i in range(size):
        count = pending[i]
        if not count:
            continue
        a = avail[i]
        if a - unit_cost <= 0:
            k = 1  # overloaded: delegate everything to the strongest node
        else:
            k = max(1, min(int(math.floor(a / unit_cost)), count))
        stride = strides[i]
        level = levels[i] + 1
        head = i
        for j in range(k):
            head += stride
            part = (count - j - 1) // k + 1
            parents[head] = i
            levels[head] = level
            assigned[head] = part
            pending[head] = part - 1
            strides[head] = k * stride
    return parents, levels, assigned


def build_ldt(
    root: LDTMember,
    registry: Sequence[LDTMember],
    unit_cost: float = 1.0,
    *,
    tie_break: Optional[Callable[[LDTMember], float]] = None,
) -> LDTree:
    """Schedule one Fig-4 advertisement and return its tree.

    Parameters
    ----------
    root:
        The advertising mobile node ``i``.
    registry:
        ``R(i)`` — the registered (interested) nodes, any order.
    unit_cost:
        ``v``, "the unit cost to send an update message".
    tie_break:
        Optional secondary sort key for equal capacities (e.g. network
        proximity to the advertiser); defaults to the node key, which keeps
        construction deterministic.

    Returns
    -------
    LDTree
        The dissemination structure; every registry member appears exactly
        once (the algorithm's partitions are disjoint and exhaustive).
    """
    if unit_cost <= 0:
        raise ValueError("unit_cost must be positive")
    seen = {m.key for m in registry}
    if len(seen) != len(registry):
        raise ValueError("registry contains duplicate keys")
    if root.key in seen:
        raise ValueError("the root must not appear in its own registry")

    secondary = tie_break or (lambda m: float(m.key))
    ordered = sorted(registry, key=lambda m: (-m.capacity, secondary(m)))
    ordered.insert(0, root)
    capacities = [m.capacity for m in ordered]
    used = [m.used for m in ordered]
    schedule = _fig4_columns([c - u for c, u in zip(capacities, used)], unit_cost)
    return LDTree.from_sorted([m.key for m in ordered], *schedule, capacities, used)


def ldt_depth_bound(registry_size: int, branching: int) -> float:
    """The §2.3 ideal bound: a ``k``-way complete tree advertises in
    ``O(log_k |R|)`` hops ("if a LDT is a k-way complete tree, then
    perform a state advertisement takes O(log(log N)/log k) hops")."""
    if registry_size <= 0:
        return 0.0
    if branching <= 1:
        return float(registry_size)
    return math.log(max(registry_size, 1), branching) + 1
