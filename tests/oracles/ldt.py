"""Fig 4 as the paper states it.

``recursive_ldt`` is the advertisement recursion ``build_ldt`` ran before
it became an iterative single-sort kernel: one ``sorted`` per step, one
round-robin split per sender, one Python frame per tree level (so chains
longer than the interpreter's recursion limit are out of its reach).

It returns ``(nodes, edges)`` built from plain :class:`LDTNode` objects —
key → node in attach order, and the ``(parent, child)`` send list — which
is what the columnar :class:`~repro.core.ldt.LDTree` must materialise.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.ldt import LDTMember, LDTNode, LDTree

__all__ = ["recursive_ldt", "assert_tree_matches"]

Nodes = Dict[int, LDTNode]
Edges = List[Tuple[int, int]]


def _round_robin_partitions(
    items: Sequence[LDTMember], k: int
) -> List[List[LDTMember]]:
    """Partition ``j`` receives items ``j, j+k, j+2k, ...`` of a
    capacity-sorted list: sizes differ by at most one and the heads are
    the ``k`` highest-capacity nodes."""
    parts: List[List[LDTMember]] = [[] for _ in range(k)]
    for idx, item in enumerate(items):
        parts[idx % k].append(item)
    return [p for p in parts if p]


def recursive_ldt(
    root: LDTMember,
    registry: Sequence[LDTMember],
    unit_cost: float = 1.0,
    *,
    tie_break: Optional[Callable[[LDTMember], float]] = None,
) -> Tuple[Nodes, Edges]:
    """Run the Fig-4 advertisement recursion literally."""
    if unit_cost <= 0:
        raise ValueError("unit_cost must be positive")
    keys = [m.key for m in registry]
    if len(set(keys)) != len(keys):
        raise ValueError("registry contains duplicate keys")
    if root.key in set(keys):
        raise ValueError("the root must not appear in its own registry")

    nodes: Nodes = {root.key: LDTNode(member=root, level=0, parent=None)}
    edges: Edges = []

    def sort_key(m: LDTMember) -> Tuple[float, float]:
        secondary = tie_break(m) if tie_break is not None else float(m.key)
        return (-m.capacity, secondary)

    def attach(child: LDTMember, parent: LDTMember, level: int, assigned: int) -> None:
        nodes[child.key] = LDTNode(
            member=child, level=level, parent=parent.key, assigned=assigned
        )
        nodes[parent.key].children.append(child.key)
        edges.append((parent.key, child.key))

    def advertise(sender: LDTMember, sender_level: int, pending: List[LDTMember]) -> None:
        """``sender`` forwards the update to ``pending`` (Fig 4)."""
        if not pending:
            return
        ordered = sorted(pending, key=sort_key)
        avail = sender.capacity - sender.used
        if avail - unit_cost <= 0:
            # Overloaded: delegate everything to the strongest node.
            head, rest = ordered[0], ordered[1:]
            attach(head, sender, sender_level + 1, assigned=len(ordered))
            advertise(head, sender_level + 1, rest)
            return
        k = int(math.floor(avail / unit_cost))
        k = max(1, min(k, len(ordered)))
        for part in _round_robin_partitions(ordered, k):
            head, rest = part[0], part[1:]
            attach(head, sender, sender_level + 1, assigned=len(part))
            advertise(head, sender_level + 1, rest)

    advertise(root, 0, list(registry))
    return nodes, edges


def assert_tree_matches(tree: LDTree, reference: Tuple[Nodes, Edges]) -> None:
    """``tree`` materialises exactly ``reference``: row order, ``nodes``
    insertion order, ``edges``, and every node's member, level, parent,
    children and assigned count."""
    nodes, edges = reference
    assert list(tree.keys) == list(nodes)
    assert list(tree.nodes) == list(nodes)
    assert tree.edges == edges
    assert tree.nodes == nodes
    assert tree.levels == tuple(n.level for n in nodes.values())
    assert tree.assigned == tuple(n.assigned for n in nodes.values())
    assert tree.depth == max(n.level for n in nodes.values())
    assert tree.message_count == len(edges)
    interior = [(k, len(n.children)) for k, n in nodes.items() if n.children]
    assert list(zip(tree.interior_keys, tree.fanouts)) == interior
    for key, node in nodes.items():
        assert tree.children_of(key) == node.children
