"""Hash-key space arithmetic for HS-P2P overlays.

Keys live on an ``m``-bit identifier ring of size ``rho = 2**m`` (the paper
writes ρ for the ring size in §3).  The module provides the three notions
of "closeness" the overlays need:

* **clockwise distance** — Chord's metric: how far forward from ``a`` to
  ``b`` around the ring.
* **ring distance** — Pastry/Tornado's numeric metric: minimum of the two
  directions.
* **prefix digits** — Pastry/Tornado route by longest shared prefix of the
  base-``2^b`` digit expansion.

Vectorised helpers (NumPy) back the bulk operations used by experiments
(drawing thousands of uniform keys, nearest-key queries over sorted key
arrays).

The scalar arithmetic here is exact up to 160 bits, but member arrays are
``uint64`` and routing rows ``array('Q')``: :data:`MAX_OVERLAY_BITS` = 64 is
the structural limit of every overlay and of ``BristleConfig.key_bits``.
"""

from __future__ import annotations

import dataclasses
from typing import Tuple

import numpy as np

from ..sim.rng import RngStreams

__all__ = ["KeySpace", "MAX_OVERLAY_BITS"]

#: Widest key space an overlay can be built over (keys are machine words).
MAX_OVERLAY_BITS = 64


@dataclasses.dataclass(frozen=True)
class KeySpace:
    """An ``m``-bit circular identifier space.

    Parameters
    ----------
    bits:
        Identifier width ``m``; the ring size is ``rho = 2**m``.
    digit_bits:
        Pastry/Tornado digit width ``b``; keys have ``m // b`` digits in
        base ``2**b``.  ``bits`` must be divisible by ``digit_bits``.
    """

    bits: int = 32
    digit_bits: int = 4
    #: Ring size ρ = 2**bits.
    size: int = dataclasses.field(init=False, repr=False, compare=False)
    #: Number of base-``2**digit_bits`` digits in a key.
    num_digits: int = dataclasses.field(init=False, repr=False, compare=False)
    #: The digit alphabet size ``2**digit_bits``.
    digit_base: int = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.bits <= 0 or self.bits > 160:
            raise ValueError(f"bits must be in (0, 160], got {self.bits}")
        if self.digit_bits <= 0 or self.bits % self.digit_bits != 0:
            raise ValueError(
                f"digit_bits ({self.digit_bits}) must divide bits ({self.bits})"
            )
        # Derived once: routing reads these several times per hop.
        object.__setattr__(self, "size", 1 << self.bits)
        object.__setattr__(self, "num_digits", self.bits // self.digit_bits)
        object.__setattr__(self, "digit_base", 1 << self.digit_bits)

    def contains(self, key: int) -> bool:
        """True when ``key`` is a valid identifier."""
        return 0 <= key < self.size

    def validate(self, key: int) -> int:
        """Return ``key`` unchanged or raise ``ValueError``."""
        if not self.contains(key):
            raise ValueError(f"key {key} outside [0, {self.size})")
        return key

    # ------------------------------------------------------------------
    # Distances
    # ------------------------------------------------------------------
    def clockwise_distance(self, a: int, b: int) -> int:
        """Forward (clockwise) distance from ``a`` to ``b``."""
        return (b - a) % self.size

    def ring_distance(self, a: int, b: int) -> int:
        """Minimum of the two directions between ``a`` and ``b``."""
        d = (b - a) % self.size
        return min(d, self.size - d)

    def in_interval(self, key: int, start: int, end: int) -> bool:
        """True when ``key`` lies in the half-open clockwise arc (start, end].

        Chord's canonical membership test; handles wrap-around.  When
        ``start == end`` the arc is the whole ring minus nothing, i.e. every
        key qualifies (the single-node case).
        """
        if start == end:
            return True
        return self.clockwise_distance(start, key) <= self.clockwise_distance(start, end) and key != start

    # ------------------------------------------------------------------
    # Digits (prefix routing)
    # ------------------------------------------------------------------
    def digits(self, key: int) -> Tuple[int, ...]:
        """Base-``2**digit_bits`` digit expansion, most significant first."""
        self.validate(key)
        b = self.digit_bits
        mask = self.digit_base - 1
        n = self.num_digits
        return tuple((key >> (b * (n - 1 - i))) & mask for i in range(n))

    def digit(self, key: int, index: int) -> int:
        """The ``index``-th digit of ``key`` (0 = most significant)."""
        n = self.num_digits
        if not 0 <= index < n:
            raise IndexError(f"digit index {index} out of range [0, {n})")
        return (key >> (self.digit_bits * (n - 1 - index))) & (self.digit_base - 1)

    def shared_prefix_length(self, a: int, b: int) -> int:
        """Number of leading digits ``a`` and ``b`` share."""
        if a == b:
            return self.num_digits
        x = a ^ b
        # Position of the highest differing bit, then which digit it is in.
        high_bit = x.bit_length() - 1
        differing_digit = (self.bits - 1 - high_bit) // self.digit_bits
        return differing_digit

    # ------------------------------------------------------------------
    # Bulk / vectorised operations
    # ------------------------------------------------------------------
    def random_keys(self, rng: RngStreams, stream: str, count: int, *, unique: bool = True) -> np.ndarray:
        """Draw ``count`` uniform keys (optionally distinct) as a NumPy array.

        Models the paper's assumption of "a uniform hash function such as
        SHA-1" (§3).  Uniqueness is enforced by redrawing collisions, which
        is cheap while ``count << 2**bits``.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        gen = rng.stream(stream)
        if not unique:
            return gen.integers(0, self.size, size=count, dtype=np.uint64)
        if count > self.size:
            raise ValueError(f"cannot draw {count} unique keys from a space of {self.size}")
        keys = np.unique(gen.integers(0, self.size, size=count, dtype=np.uint64))
        while keys.size < count:
            extra = gen.integers(0, self.size, size=count - keys.size, dtype=np.uint64)
            keys = np.unique(np.concatenate([keys, extra]))
        gen.shuffle(keys)
        return keys[:count]

    def random_keys_in_range(
        self,
        rng: RngStreams,
        stream: str,
        count: int,
        low: int,
        high: int,
        *,
        unique: bool = True,
    ) -> np.ndarray:
        """Draw uniform keys in ``[low, high]`` (inclusive), used by the
        clustered naming scheme (§3): stationary keys in ``[L, U]``."""
        if not (0 <= low <= high < self.size):
            raise ValueError(f"invalid range [{low}, {high}] for space of {self.size}")
        span = high - low + 1
        if unique and count > span:
            raise ValueError(f"cannot draw {count} unique keys from a range of {span}")
        gen = rng.stream(stream)
        if not unique:
            return gen.integers(low, high + 1, size=count, dtype=np.uint64)
        keys = np.unique(gen.integers(low, high + 1, size=count, dtype=np.uint64))
        while keys.size < count:
            extra = gen.integers(low, high + 1, size=count - keys.size, dtype=np.uint64)
            keys = np.unique(np.concatenate([keys, extra]))
        gen.shuffle(keys)
        return keys[:count]

    def nearest_key(self, sorted_keys: np.ndarray, target: int) -> int:
        """Key in ``sorted_keys`` with minimal ring distance to ``target``.

        ``sorted_keys`` must be an ascending array of valid keys.  Ties
        break toward the numerically smaller key, deterministically.
        """
        n = sorted_keys.size
        if n == 0:
            raise ValueError("empty key array")
        idx = int(np.searchsorted(sorted_keys, np.uint64(target)))
        above = int(sorted_keys[idx % n])
        below = int(sorted_keys[idx - 1])
        d_above = self.ring_distance(above, target)
        d_below = self.ring_distance(below, target)
        if d_above != d_below:
            return above if d_above < d_below else below
        return min(above, below)

    def successor_key(self, sorted_keys: np.ndarray, target: int) -> int:
        """First key clockwise at-or-after ``target`` (Chord's successor)."""
        if sorted_keys.size == 0:
            raise ValueError("empty key array")
        idx = int(np.searchsorted(sorted_keys, np.uint64(target)))
        return int(sorted_keys[idx % sorted_keys.size])

    def is_closer(self, candidate: int, incumbent: int, target: int) -> bool:
        """True when ``candidate`` is strictly closer to ``target`` (ring
        metric, ties to smaller key) — the "closer" of Figure 2."""
        dc = self.ring_distance(candidate, target)
        di = self.ring_distance(incumbent, target)
        if dc != di:
            return dc < di
        return candidate < incumbent
