"""Configuration for a Bristle deployment.

One frozen dataclass gathers every tunable the paper exposes (key-space
width, naming scheme, overlay choices, lease durations, the unit
advertisement cost ``v`` of Fig 4, LDT registry sizing) so experiments and
examples configure a network in one place.
"""

from __future__ import annotations

import dataclasses
import math
import operator
from typing import Optional

from ..overlay.factory import overlay_name
from ..overlay.keyspace import MAX_OVERLAY_BITS, KeySpace

__all__ = ["BristleConfig"]


@dataclasses.dataclass(frozen=True)
class BristleConfig:
    """Parameters of a Bristle network.

    Attributes
    ----------
    key_bits / digit_bits:
        Identifier-ring geometry (ρ = 2**key_bits).
    naming:
        ``"clustered"`` (the §3 scheme: stationary keys inside [L, U]) or
        ``"scrambled"`` (uniform keys regardless of mobility).
    mobile_layer_overlay:
        Overlay geometry of the mobile layer.  ``"chord"`` (default)
        matches the §3 analysis: power-of-two fingers make the first hop of
        a wrapping route clear the mobile key region whenever ∇ ≥ 1/2.
    stationary_layer_overlay:
        Overlay used by the location-management (stationary) layer for
        ``_discovery`` routing; any of chord/pastry/tornado.
    state_ttl:
        Lease duration of mobile state-pairs (§2.3.2).
    refresh_period:
        Early-binding refresh interval (must be < state_ttl for caches to
        stay warm).
    unit_advertise_cost:
        The ``v`` of Fig 4 — capacity units one update message costs.
    registry_size:
        Members of each mobile node's LDT; ``None`` → ⌈log₂ N⌉ at build
        time (§2.3: "The number of members in a LDT is O(log N)").
    replication:
        Location records are stored at this many stationary nodes
        clustered around the owner key (§2.3.2 availability, "replicated
        to k nodes").
    p_stale:
        Probability that a cached mobile address encountered mid-route
        needs resolution.  The Figure-7 experiments use 1.0 (the paper
        assumes "a mobile node only advertises its updated location to the
        stationary layer", so caches are always cold).
    seed:
        Master seed for all randomness.
    """

    key_bits: int = 32
    digit_bits: int = 4
    naming: str = "clustered"
    mobile_layer_overlay: str = "chord"
    stationary_layer_overlay: str = "chord"
    state_ttl: float = 60.0
    refresh_period: float = 20.0
    unit_advertise_cost: float = 1.0
    registry_size: Optional[int] = None
    replication: int = 3
    p_stale: float = 1.0
    seed: int = 1

    def __post_init__(self) -> None:
        # Integer fields take integers, NumPy's too (``TypeError`` for 1.5).
        for value in (self.key_bits, self.digit_bits, self.replication, self.seed):
            operator.index(value)
        if self.registry_size is not None:
            operator.index(self.registry_size)
        if self.key_bits > MAX_OVERLAY_BITS:
            raise ValueError(
                f"key_bits must be <= {MAX_OVERLAY_BITS} (keys are 64-bit "
                f"words), got {self.key_bits}"
            )
        KeySpace(self.key_bits, self.digit_bits)  # raises on a ring no overlay can build
        overlay_name(self.mobile_layer_overlay)
        overlay_name(self.stationary_layer_overlay)
        if self.naming not in ("clustered", "scrambled"):
            raise ValueError(f"naming must be 'clustered' or 'scrambled', got {self.naming!r}")
        # Phrased so that NaN fails them (every comparison with NaN is
        # false); an infinite state_ttl is a lease that never lapses.
        if not (self.state_ttl > 0 and self.refresh_period > 0):
            raise ValueError("state_ttl and refresh_period must be positive")
        if not self.refresh_period < self.state_ttl:
            raise ValueError(
                f"refresh_period ({self.refresh_period}) must be shorter than "
                f"state_ttl ({self.state_ttl}) or leases lapse between refreshes"
            )
        if not self.unit_advertise_cost > 0:
            raise ValueError("unit_advertise_cost must be positive")
        if self.replication < 1:
            raise ValueError("replication must be >= 1")
        if not 0.0 <= self.p_stale <= 1.0:
            raise ValueError("p_stale must be in [0, 1]")
        if self.registry_size is not None and self.registry_size < 1:
            raise ValueError("registry_size must be >= 1 when given")

    def effective_registry_size(self, num_nodes: int) -> int:
        """Registry size for a network of ``num_nodes``: explicit value or
        the paper's ⌈log₂ N⌉."""
        if self.registry_size is not None:
            return self.registry_size
        return max(1, math.ceil(math.log2(max(num_nodes, 2))))
