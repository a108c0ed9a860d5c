"""Scalar reads of the member ring equal the ``np.searchsorted`` reads.

Every overlay keeps its members in one uint64 buffer and reads single
entries through ``Overlay.ring``, a zero-copy ``memoryview`` of it
searched by ``bisect`` with ``hi=num_nodes``.  After every event of a
random churn script, on all five overlays at key widths 32, 60, 63 and
64, the reads that go through it — ``owner_of`` on a cleared memo,
``LocationDirectory.holders_for``, ``KeySpace.nearest_key`` /
``successor_key`` — must equal ``tests/oracles/ring.py``'s searches, and
the view must equal the member array (it is rebound when the buffer
grows).  Chord's repair is checked against definitions: a joiner's row
against ``chord_offsets``, and ``_affected_positions`` against a brute-force
scan for the rows that hold the key.
"""

from bisect import bisect_left

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.location import LocationDirectory
from repro.overlay import ChordOverlay, KeySpace, TapestryOverlay, make_overlay
from repro.overlay.factory import OVERLAY_NAMES
from repro.sim import RngStreams

from .oracles.build import chord_offsets
from .oracles.ring import holders, nearest, successor, surrogate_root

WIDTHS = {32: 4, 60: 4, 63: 7, 64: 4}  # bits: a digit width dividing them

SCRIPT = st.lists(
    st.tuples(st.booleans(), st.integers(0, 2**64 - 1)), min_size=5, max_size=20
)


def make(name, bits):
    space = KeySpace(bits=bits, digit_bits=WIDTHS[bits])
    return make_overlay(name, space, can_dims=3 if bits % 2 else 2)


def reference_owner(ov, members, target):
    keys = ov.keys
    if isinstance(ov, ChordOverlay):
        return successor(keys, target)
    if isinstance(ov, TapestryOverlay):
        return surrogate_root(ov, target)
    if ov.__class__.__name__ == "CANOverlay":  # zones, not the ring
        fresh = make_overlay("can", ov.space, can_dims=ov.dims)
        fresh.build(members)
        return fresh.owner_of(target)
    return nearest(ov.space, keys, target)


def check_reads(ov, members, targets):
    space, keys = ov.space, ov.keys
    assert keys.tolist() == sorted(members)
    assert list(ov.ring[: ov.num_nodes]) == keys.tolist()  # never a stale view
    directory = LocationDirectory(space, ov, replication=3)
    ov._owner_memo.clear()
    for t in targets:
        owner = ov.owner_of(t)
        assert owner == reference_owner(ov, members, t), t
        assert directory.holders_for(t) == holders(keys, owner, 3), t
        assert space.nearest_key(ov.ring, t, ov.num_nodes) == nearest(space, keys, t), t
        assert space.successor_key(ov.ring, t, ov.num_nodes) == successor(keys, t), t


@pytest.mark.parametrize("bits", sorted(WIDTHS))
@pytest.mark.parametrize("name", OVERLAY_NAMES)
@given(seed=st.integers(0, 2**32 - 1), script=SCRIPT)
@settings(max_examples=4, deadline=None)
def test_ring_reads_equal_searchsorted_after_every_event(name, bits, seed, script):
    ov = make(name, bits)
    rng = RngStreams(seed)
    members = set(ov.space.random_keys(rng, "members", 24).tolist())
    ov.build(members)
    capacity = ov._key_buf.size
    size = ov.space.size
    targets = ov.space.random_keys(rng, "targets", 12, unique=False).tolist()
    edges = [0, size - 1, min(members), max(members), (max(members) + 1) % size]
    for join, pick in script:
        if join or len(members) <= 2:
            key = pick % size
            while key in members:
                key = (key + 1) % size
            ov.add_node(key)
        else:
            key = sorted(members)[pick % len(members)]
            ov.remove_node(key)
        members ^= {key}
        check_reads(ov, members, targets + edges + [key, (key + 1) % size])
    assert ov._key_buf.size >= capacity


def test_views_follow_the_buffer_past_its_capacity():
    """A buffer built exactly full grows on the first join; every read
    after that sees the new buffer."""
    ov = make("chord", 32)
    members = set(range(1000, 1000 + 7 * 64, 7))
    ov.build(members)
    assert ov._key_buf.size == len(members)
    for key in range(5, 5000, 97):
        if key not in members:
            ov.add_node(key)
            members.add(key)
            check_reads(ov, members, [0, key - 1, key, key + 1, 2**32 - 1])
    assert ov._key_buf.size == 2 * 64  # grew once, past the 64 it was built with


# ----------------------------------------------------------------------
# Chord's repair against its definitions
# ----------------------------------------------------------------------
def holders_of(ov, key):
    """Members whose row, by definition, holds ``key`` (a brute-force scan)."""
    mask = ov.space.size - 1
    return {m for m in ov.keys.tolist() if m != key and (key - m) & mask in chord_offsets(ov, m)}


def chord_script(bits, count, r, seed, script, cap=None):
    """Run ``script`` on a ``count``-member ring, never above ``cap``
    members (a join turns into a leave there) nor below one."""
    space = KeySpace(bits=bits, digit_bits=1)
    ov = ChordOverlay(space, successor_list_size=r)
    members = set(space.random_keys(RngStreams(seed), "members", count).tolist())
    ov.build(members)
    for join, pick in script:
        if (join or len(members) == 1) and len(members) < (cap or space.size):
            key = pick % space.size
            while key in members:
                key = (key + 1) % space.size
            ov.add_node(key)
            idx = bisect_left(ov.ring, key, 0, ov.num_nodes)
            assert list(ov._rows[key]) == chord_offsets(ov, key)
            assert list(ov._joiner_row(key, idx)) == chord_offsets(ov, key)
            expected = holders_of(ov, key)
            found = ov._affected_positions(key, idx) - {idx}
        else:
            key = sorted(members)[pick % len(members)]
            expected = holders_of(ov, key)
            ov.remove_node(key)
            idx = bisect_left(ov.ring, key, 0, ov.num_nodes)
            found = ov._affected_positions(key, idx)
        members ^= {key}
        assert {ov.ring[p] for p in found} == expected, (join, key)
        for m in sorted(members)[:: max(1, len(members) // 8)]:
            p = bisect_left(ov.ring, m, 0, ov.num_nodes)
            assert list(ov._joiner_row(m, p)) == chord_offsets(ov, m)


@pytest.mark.parametrize("r", [1, 4, 64])
@pytest.mark.parametrize("bits", sorted(WIDTHS))
@given(seed=st.integers(0, 2**32 - 1), script=SCRIPT)
@settings(max_examples=3, deadline=None)
def test_chord_repair_equals_its_definitions(r, bits, seed, script):
    chord_script(bits, 40, r, seed, script)


@pytest.mark.parametrize("r", [1, 4, 64])
@given(seed=st.integers(0, 2**32 - 1), script=SCRIPT, count=st.integers(2, 6))
@settings(max_examples=5, deadline=None)
def test_chord_repair_on_rings_of_at_most_r_plus_one(r, seed, script, count):
    """Rings no larger than a successor list plus one, where the successor
    range wraps onto the key itself (8-bit keys, so fingers wrap too)."""
    chord_script(8, min(count, r + 1), r, seed, script, cap=r + 1)
