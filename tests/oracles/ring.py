"""Scalar reads of the member array as they were: ``np.searchsorted``.

Before the overlays read their members through the ``bisect``-able
``ring`` view, every scalar read — an owner miss, a holder walk, Tapestry's
surrogate descent — searched the uint64 member array with
``np.searchsorted`` and gathered Python ints back out of it.  These are
those bodies over ``ov.keys``; ``tests/test_ring_reads.py`` holds the
``ring`` reads equal to them on every overlay and key width.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.overlay import TapestryOverlay
from repro.overlay.keyspace import KeySpace

__all__ = ["holders", "nearest", "successor", "surrogate_root"]


def _index(keys: np.ndarray, target: int, side: str = "left") -> int:
    return int(np.searchsorted(keys, np.uint64(target), side=side))


def successor(keys: np.ndarray, target: int) -> int:
    """First member clockwise at-or-after ``target``."""
    return int(keys[_index(keys, target) % keys.size])


def nearest(space: KeySpace, keys: np.ndarray, target: int) -> int:
    """Ring-nearest member, ties to the smaller key."""
    idx = _index(keys, target)
    above, below = int(keys[idx % keys.size]), int(keys[idx - 1])
    d_above, d_below = space.ring_distance(above, target), space.ring_distance(below, target)
    if d_above != d_below:
        return above if d_above < d_below else below
    return min(above, below)


def surrogate_root(ov: TapestryOverlay, key: int) -> int:
    """Tapestry's digit-by-digit descent, bumping to the next populated
    digit where the key's own is empty."""
    keys, space = ov.keys, ov.space
    b, base = space.digit_bits, space.digit_base
    prefix, lo, hi = 0, 0, int(keys.size)
    for level in range(space.num_digits):
        shift = space.bits - b * (level + 1)
        want = (key >> shift) & (base - 1)
        for bump in range(base):
            cand = (prefix << b) | ((want + bump) % base)
            window = keys[lo:hi]
            a = _index(window, cand << shift) + lo
            z = _index(window, ((cand + 1) << shift) - 1, side="right") + lo
            if z > a:
                prefix, lo, hi = cand, a, z
                break
        if hi - lo == 1:
            break
    return int(keys[lo])


def holders(keys: np.ndarray, owner: int, replication: int) -> List[int]:
    """The owner, then its ring neighbours alternately right and left."""
    n, idx = int(keys.size), _index(keys, owner)
    out = [owner]
    step = 1
    while len(out) < min(replication, n):
        for p in (idx + step, idx - step):
            k = int(keys[p % n])
            if k not in out and len(out) < min(replication, n):
                out.append(k)
        step += 1
    return out
