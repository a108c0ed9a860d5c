"""Tornado overlay (Hsiao & King, IPDPS 2003, ref [2]) — the substrate
Bristle is implemented on ("Bristle is based on the P2P infrastructure
Tornado", §1; "Bristle is implemented on top of Tornado", §3).

Tornado's public descriptions characterise it as a *capability-aware*
prefix-routing HS-P2P with proximity neighbour selection; the Bristle paper
additionally relies on these Tornado behaviours:

* ``O(log N)`` states per node and ``O(log N)`` lookup hops (§2.3.2);
* neighbour choice weighs the *network distance* to candidates (Fig 5's
  ``distance(r, i)`` test), letting a route "forward to a geographical
  closed node in the next hop";
* node *capacity* is first-class (capacities drive the LDT advertisement
  algorithm of Fig 4).

This implementation extends the Pastry-style prefix router with both:
routing-table slots prefer proximally close candidates, breaking ties by
capacity then key; and :meth:`next_hop_proximal` implements §3's
optimisation (1): among all neighbours that make key-space progress,
greedily follow the cheapest network link.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from .base import ProximityFn
from .keyspace import KeySpace
from .pastry import PastryOverlay
from .prefix import within_runs

__all__ = ["TornadoOverlay"]

#: Capacity lookup ``key -> capacity`` (the paper's ``C_X``).
CapacityFn = Callable[[int], float]


class TornadoOverlay(PastryOverlay):
    """Capability- and proximity-aware prefix overlay.

    Parameters
    ----------
    space:
        The identifier ring.
    leaf_set_size:
        Ring-neighbour set size (robustness + delivery).
    proximity:
        Network-distance callback ``(key_a, key_b) -> cost``.  Required for
        proximity-aware slot selection and :meth:`next_hop_proximal`; when
        omitted, Tornado degrades to capacity-tie-broken Pastry.
    capacity:
        Capacity lookup for members; defaults to uniform capacity 1.
    """

    def __init__(
        self,
        space: KeySpace,
        leaf_set_size: int = 8,
        proximity: Optional[ProximityFn] = None,
        capacity: Optional[CapacityFn] = None,
    ) -> None:
        super().__init__(space, leaf_set_size=leaf_set_size, proximity=proximity)
        self.capacity: CapacityFn = capacity if capacity is not None else (lambda _key: 1.0)

    # ------------------------------------------------------------------
    # Slot selection: proximity first, then capacity, then key
    # ------------------------------------------------------------------
    def _prefer(self, local: int, candidate: int, incumbent: int) -> bool:
        """True when ``candidate`` should displace ``incumbent`` in a slot."""
        if self.proximity is not None:
            dc = self.proximity(local, candidate)
            di = self.proximity(local, incumbent)
            if dc != di:
                return dc < di
        cc = self.capacity(candidate)
        ci = self.capacity(incumbent)
        if cc != ci:
            return cc > ci
        return candidate < incumbent

    # ------------------------------------------------------------------
    # Build / churn repair: with a proximity callback, Pastry's pairwise
    # fold under _prefer.  Without one the slot winner is argmin of
    # (-capacity, key) over the block — independent of the local node, so
    # one winner per block serves every paired node.
    # ------------------------------------------------------------------
    def _bulk_pair_winners(
        self,
        keys: np.ndarray,
        starts: np.ndarray,
        ends: np.ndarray,
        pair_node: np.ndarray,
        pair_block: np.ndarray,
    ) -> np.ndarray:
        if self.proximity is not None:
            return super()._bulk_pair_winners(keys, starts, ends, pair_node, pair_block)
        # Only the blocks' own members are candidates (and asked their
        # capacity): laid out block after block.
        sizes = ends - starts
        firsts = np.cumsum(sizes) - sizes
        cands = keys[np.repeat(starts, sizes) + within_runs(sizes)]
        caps = np.fromiter(map(self.capacity, cands.tolist()), np.float64, cands.size)
        order = np.lexsort((cands, -caps))  # best (max cap, min key) first
        rank = np.empty(cands.size, dtype=np.int64)
        rank[order] = np.arange(cands.size)
        # per-block best = the minimum rank within each contiguous run
        winners = cands[order[np.minimum.reduceat(rank, firsts)]]
        return winners[pair_block]

    # ------------------------------------------------------------------
    # §3 optimisation (1): greedy minimal-cost progress
    # ------------------------------------------------------------------
    def next_hop_proximal(self, current: int, target: int) -> Optional[int]:
        """Next hop choosing, among *all* progress-making neighbours, the
        one reachable over the cheapest network link.

        "forwarding the route to a neighboring node whose hash key is
        closer to the destination and the cost of the network link to the
        neighbor is minimal.  Although this optimization still needs
        O(log N) hops ... each hop can greedily follow the network link
        with the minimal cost." (§3)

        Falls back to the standard prefix rule when no proximity callback
        was supplied.
        """
        if self.proximity is None:
            return self.next_hop(current, target)
        owner = self.owner_of(target)
        if current == owner:
            return None
        cur_key = self.progress_key(current, target)
        best: Optional[int] = None
        best_cost = float("inf")
        for cand in self.neighbors_of(current):
            if cand == owner:
                return cand  # direct delivery always wins
            if self.progress_key(cand, target) < cur_key:
                cost = self.proximity(current, cand)
                if cost < best_cost or (cost == best_cost and best is not None and cand < best):
                    best, best_cost = cand, cost
        if best is not None:
            return best
        # No strictly-closer cheap neighbour; defer to the standard rule
        # (handles the leaf-set delivery corner).
        return self.next_hop(current, target)
