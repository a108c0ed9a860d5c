"""Non-member-only LDTs — the design alternative Bristle rejects (§2.3).

"A non-member-only LDT may contain other nodes in addition to Y and those
interested nodes ... [it] shares several similar aspects with the
IP-multicast and the Scribe protocols, which organize the tree by
utilizing the nodes along the routes from the leaves to the root."

Construction (Scribe-style): every interested node routes a JOIN message
through the overlay toward the tree root's key; each node on the route
becomes a *forwarder* and the JOIN stops at the first node already on the
tree.  The tree therefore contains up to
``O(log N)`` forwarders per leaf — ``S(τ) = O((log N)²)`` nodes per tree —
and with M mobile nodes the per-stationary-node *responsibility* grows to
``O((M/(N−M))·(log N)²)``, the upper curve of Figure 3.

To avoid recursively resolving forwarders' own addresses, the paper notes
forwarders "can be elected from the other N − M nodes in the stationary
layer" — so JOINs here are routed through the *stationary* overlay.

This module exists to measure the alternative Bristle argues against:
the Figure-3 empirical bench builds both tree kinds over the same
population and compares measured responsibility.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Sequence, Set, Tuple

from ..overlay.base import Overlay

__all__ = ["NonMemberTree", "build_non_member_tree"]


@dataclasses.dataclass
class NonMemberTree:
    """A Scribe-style dissemination tree with forwarder (non-member) nodes.

    Attributes
    ----------
    root_key:
        The mobile node whose movement the tree disseminates.
    rendezvous:
        The stationary node owning the root key (the tree's anchor in the
        overlay — JOINs route toward it).
    parent:
        child → parent map over *all* tree nodes (leaves + forwarders).
    members:
        The interested (leaf) nodes.
    forwarders:
        Nodes recruited purely to forward (not interested themselves).
    """

    root_key: int
    rendezvous: int
    parent: Dict[int, int]
    members: Set[int]
    forwarders: Set[int]

    @property
    def all_nodes(self) -> Set[int]:
        """Every node participating in the tree (excluding the root)."""
        return self.members | self.forwarders | {self.rendezvous}

    @property
    def size(self) -> int:
        """Participating node count — the paper's ``S(τ)``."""
        return len(self.all_nodes)

    def depth_of(self, node: int) -> int:
        """Hops from ``node`` up to the root."""
        depth = 0
        cur = node
        while cur != self.root_key:
            cur = self.parent[cur]
            depth += 1
            if depth > len(self.parent) + 1:  # pragma: no cover - corrupt tree
                raise RuntimeError("cycle in non-member tree")
        return depth

    @property
    def depth(self) -> int:
        """Maximum leaf depth."""
        return max((self.depth_of(m) for m in self.members), default=0)

    def edges(self) -> List[Tuple[int, int]]:
        """(parent, child) pairs — one advertisement message each."""
        return [(p, c) for c, p in sorted(self.parent.items())]

    def forwarding_load(self) -> Dict[int, int]:
        """children count per interior node — the responsibility each
        forwarder carries for this tree."""
        load: Dict[int, int] = {}
        for child, parent in self.parent.items():
            load[parent] = load.get(parent, 0) + 1
        return load

    def validate(self) -> None:
        """Structural checks used by property tests."""
        for m in self.members:
            self.depth_of(m)  # raises on a cycle / dangling parent
        for f in self.forwarders:
            assert f not in self.members, f"forwarder {f} is also a member"
        assert self.root_key not in self.parent, "root must have no parent"


def build_non_member_tree(
    root_key: int,
    members: Sequence[int],
    stationary_overlay: Overlay,
) -> NonMemberTree:
    """Build a non-member-only LDT by routing JOINs toward the root key.

    Parameters
    ----------
    root_key:
        The mobile node's hash key (need not be an overlay member — the
        rendezvous is its owner in the stationary layer).
    members:
        Interested nodes.  Members that are stationary-layer participants
        join from themselves; others join from their stationary entry
        point (the owner of their key), mirroring §2.2's injection rule.
    stationary_overlay:
        The overlay whose routes recruit the forwarders.

    Returns
    -------
    NonMemberTree
        Tree spanning the rendezvous, all member entry points, and every
        recruited forwarder.
    """
    rendezvous = stationary_overlay.owner_of(root_key)
    # A root that is itself a stationary member is its own rendezvous.
    parent: Dict[int, int] = {} if rendezvous == root_key else {rendezvous: root_key}
    on_tree: Set[int] = {root_key, rendezvous}
    member_set: Set[int] = set()
    forwarders: Set[int] = set()

    for m in sorted(set(members)):
        if m == root_key:
            raise ValueError("the root does not join its own tree")
        entry = m if stationary_overlay.is_member(m) else stationary_overlay.owner_of(m)
        member_set.add(entry)
        if entry in on_tree:
            continue
        route = stationary_overlay.route(entry, root_key)
        # Graft the JOIN path onto the tree: walk from the joining node
        # toward the rendezvous, stopping at the first on-tree node.
        hops = route.hops
        for child, nxt in zip(hops, hops[1:]):
            if child in on_tree:
                break
            parent[child] = nxt
            on_tree.add(child)
            if nxt != rendezvous and nxt not in member_set:
                forwarders.add(nxt)

    forwarders -= member_set
    forwarders.discard(rendezvous)
    # Any routed-through node that neither asked to join nor anchors the
    # tree is a forwarder.
    interior = set(parent) - member_set - {rendezvous}
    forwarders |= interior
    return NonMemberTree(
        root_key=root_key,
        rendezvous=rendezvous,
        parent=parent,
        members=member_set,
        forwarders=forwarders,
    )
