"""Vectorised digit/prefix decomposition over sorted key arrays.

The prefix-routing overlays (Pastry, Tornado, Tapestry) all organise the
member set the same way: at digit level ``r`` the sorted key array splits
into contiguous *blocks* of members sharing their first ``r + 1`` digits,
and a routing-table slot ``(r, d)`` of node ``x`` is won by some member of
the sibling block with digit ``d`` under ``x``'s level-``r`` prefix.
Because blocks are value-contiguous runs of the sorted array, the whole
decomposition falls out of a handful of NumPy primitives; this module
collects those so the build (`Overlay._build_all`) and the targeted churn
repairs share one audited implementation.

uint64 arithmetic is exact for every key width up to
:data:`~repro.overlay.keyspace.MAX_OVERLAY_BITS` = 64, the widest an
overlay accepts: shifts are by ``bits - b * (row + 1)``, in ``[0, 64)``,
every prefix bound fits in 64 bits, and because ``2**bits`` divides
``2**64`` a wrap-around difference masked with ``2**bits - 1`` is exact
mod the ring size — at 64 bits the mask is the wrap itself.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .keyspace import KeySpace

__all__ = [
    "shared_prefix_lengths",
    "digits_at",
    "level_blocks",
    "prefix_block_range",
    "within_runs",
]


def shared_prefix_lengths(space: KeySpace, keys: np.ndarray, key: int) -> np.ndarray:
    """``shared_prefix_length(key, keys[i])`` for every element (int64).

    Elements equal to ``key`` get ``space.num_digits``.
    """
    b = space.digit_bits
    bits = space.bits
    digit_mask = np.uint64(space.digit_base - 1)
    k = np.uint64(key)
    matched = np.ones(keys.shape, dtype=bool)
    spl = np.zeros(keys.shape, dtype=np.int64)
    for level in range(space.num_digits):
        shift = np.uint64(bits - b * (level + 1))
        matched &= ((keys >> shift) & digit_mask) == ((k >> shift) & digit_mask)
        spl += matched
    return spl


def digits_at(space: KeySpace, keys: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """``digit(keys[i], levels[i])`` for every element (uint64).

    ``keys`` may be a scalar-broadcastable array; ``levels`` must hold
    valid digit indices (``0 <= level < num_digits``).
    """
    b = space.digit_bits
    shifts = (space.bits - b * (levels.astype(np.int64) + 1)).astype(np.uint64)
    return (keys >> shifts) & np.uint64(space.digit_base - 1)


def level_blocks(
    space: KeySpace, keys: np.ndarray, row: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decompose sorted ``keys`` into level-``row`` blocks.

    Returns ``(starts, ends, codes)``: half-open index runs of members
    sharing their first ``row + 1`` digits, and each run's prefix code
    (the key right-shifted past the remaining digits).
    """
    shift = np.uint64(space.bits - space.digit_bits * (row + 1))
    codes = keys >> shift
    change = np.flatnonzero(codes[1:] != codes[:-1]) + 1
    starts = np.concatenate([np.zeros(1, dtype=np.int64), change])
    ends = np.concatenate([change, np.asarray([keys.size], dtype=np.int64)])
    return starts, ends, codes[starts]


def prefix_block_range(
    space: KeySpace, keys: np.ndarray, key: int, row: int
) -> Tuple[int, int]:
    """Index range ``[lo, hi)`` of members sharing ``key``'s first
    ``row + 1`` digits (the block a slot ``(row, digit(key, row))`` draws
    its candidates from)."""
    shift = space.bits - space.digit_bits * (row + 1)
    prefix = key >> shift
    lo = int(np.searchsorted(keys, np.uint64(prefix << shift)))
    hi = int(np.searchsorted(keys, np.uint64(((prefix + 1) << shift) - 1), side="right"))
    return lo, hi


def within_runs(counts: np.ndarray) -> np.ndarray:
    """``0 .. counts[i] - 1`` for each ``i``, concatenated (int64)."""
    return np.arange(int(counts.sum())) - np.repeat(np.cumsum(counts) - counts, counts)
