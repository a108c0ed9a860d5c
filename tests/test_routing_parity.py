"""Hop kernels against the generic routing they replaced.

``tests/oracles/routing.py`` holds the ``next_hop`` / ``progress_key`` /
route-loop bodies as they were before the overlays got query-shaped rows
and integer hop kernels.  Here every overlay (Chord, Pastry, Tornado,
Tapestry, CAN) must produce the *same hop sequence*, hop for hop, on
fresh builds and after long join/leave sequences, at three key widths;
CAN's route must also equal the plateau-tolerant walk it used to run.
The route loop's guards must still fire on a corrupted row.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.overlay import (
    ChordOverlay,
    KeySpace,
    Overlay,
    PastryOverlay,
    RoutingError,
    make_overlay,
)

from .oracles.routing import (
    can_plateau_route,
    reference_next_hop,
    reference_progress_key,
    reference_route,
)
from .oracles.rows import (
    chord_row,
    clear_slot,
    set_chord_row,
    set_leaves,
    set_slot,
    slot_table,
)

KERNEL_OVERLAYS = ("chord", "pastry", "tornado", "tapestry", "can")
WIDTHS = [(32, 4), (60, 4), (63, 7)]


def _capacity(key: int) -> float:
    return float(1 + key % 5)


def _make(name: str, space: KeySpace):
    # Tornado with unequal capacities, so its slot rule differs from Pastry's;
    # CAN's torus dimension must divide the key bits (63 = 3 * 21).
    dims = 2 if space.bits % 2 == 0 else 3
    return make_overlay(name, space, capacity=_capacity, can_dims=dims)


def _draw_keys(gen: np.random.Generator, space: KeySpace, count: int) -> list:
    """Distinct keys: some uniform, some packed into one narrow window so
    leaf sets, deep table rows and the owner-across-a-digit-boundary case
    all occur."""
    base = int(gen.integers(0, space.size - (1 << 12), dtype=np.uint64))
    packed = {base + int(d) for d in gen.integers(0, 1 << 12, count // 2)}
    spread = {int(k) for k in gen.integers(0, space.size, count, dtype=np.uint64)}
    pool = sorted(packed | spread)
    return [pool[i] for i in gen.choice(len(pool), count, replace=False).tolist()]


def _targets(gen: np.random.Generator, space: KeySpace, members: list, count: int):
    """Member keys, their ring neighbours and uniform keys."""
    picks = [members[int(i)] for i in gen.integers(0, len(members), count // 3)]
    near = [
        (k + int(d)) % space.size
        for k, d in zip(picks, gen.integers(-3, 4, len(picks)))
    ]
    uniform = [int(k) for k in gen.integers(0, space.size, count, dtype=np.uint64)]
    return picks + near + uniform


def _assert_routes_like_the_reference(ov: Overlay, gen: np.random.Generator, pairs=90):
    space = ov.space
    members = [int(k) for k in ov.keys]
    for target in _targets(gen, space, members, pairs):
        source = members[int(gen.integers(len(members)))]
        hops, success = reference_route(ov, source, target)
        result = ov.route(source, target)
        assert result.hops == hops, (source, target)
        assert result.success is success is True
        # ... and the public single-step API agrees at every node visited.
        for node in hops:
            assert ov.next_hop(node, target) == reference_next_hop(ov, node, target)
            assert ov.progress_key(node, target) == reference_progress_key(
                ov, node, target
            )


def _churn(ov: Overlay, gen: np.random.Generator, events: int) -> None:
    members = [int(k) for k in ov.keys]
    space = ov.space
    for _ in range(events):
        if gen.integers(2) and len(members) > 24:
            ov.remove_node(members.pop(int(gen.integers(len(members)))))
        else:
            # Join next to a member half the time: leaf sets and deep rows
            # change, not only the sparse top of the tables.
            key = int(gen.integers(0, space.size, dtype=np.uint64))
            if gen.integers(2):
                neighbour = members[int(gen.integers(len(members)))]
                key = (neighbour + int(gen.integers(1, 9))) % space.size
            if not ov.is_member(key):
                ov.add_node(key)
                members.append(key)


@pytest.mark.parametrize("bits,digit_bits", WIDTHS)
@pytest.mark.parametrize("name", KERNEL_OVERLAYS)
class TestHopForHopParity:
    def test_fresh_build(self, name, bits, digit_bits):
        space = KeySpace(bits=bits, digit_bits=digit_bits)
        gen = np.random.default_rng([bits, 1])
        ov = _make(name, space)
        ov.build(_draw_keys(gen, space, 160))
        _assert_routes_like_the_reference(ov, gen)

    def test_after_join_leave_sequence(self, name, bits, digit_bits):
        space = KeySpace(bits=bits, digit_bits=digit_bits)
        gen = np.random.default_rng([bits, 2])
        ov = _make(name, space)
        ov.build(_draw_keys(gen, space, 120))
        _churn(ov, gen, 120)
        _assert_routes_like_the_reference(ov, gen, pairs=45)
        _churn(ov, gen, 120)
        _assert_routes_like_the_reference(ov, gen, pairs=45)


@pytest.mark.parametrize("name", ["pastry", "tornado", "tapestry"])
def test_parity_with_a_proximity_rule(name, space):
    """A proximity callback changes which member wins a slot, not how
    routing reads the table."""
    gen = np.random.default_rng(7)
    ov = make_overlay(
        name, space, proximity=lambda a, b: float((a * 2654435761 ^ b * 40503) % 1009)
    )
    ov.build(_draw_keys(gen, space, 48))
    _assert_routes_like_the_reference(ov, gen, pairs=30)
    _churn(ov, gen, 30)
    _assert_routes_like_the_reference(ov, gen, pairs=30)


def test_tiny_rings():
    space = KeySpace(bits=8, digit_bits=2)
    gen = np.random.default_rng(3)
    for name in KERNEL_OVERLAYS:
        for members in ([9], [9, 200], [0, 255, 128], list(range(0, 256, 3))):
            ov = _make(name, space)
            ov.build(members)
            for target in range(0, 256, 5):
                source = members[int(gen.integers(len(members)))]
                assert ov.route(source, target).hops == reference_route(
                    ov, source, target
                )[0]


@pytest.mark.parametrize("name", ["pastry", "tornado"])
def test_leaf_walk_on_a_stale_leaf_set(name, space):
    """Step 4 of the Pastry rule needs state no exact build produces: the
    owner just across a digit boundary and missing from the leaf set."""
    boundary = 0x80000000
    below = [boundary - 1 - 2 * i for i in range(10)]
    source = boundary + 0x100
    ov = _make(name, space)
    ov.build(below + [source + i for i in range(4)] + [7, 0xF0000000])
    target, owner = boundary, boundary - 1
    assert ov.owner_of(target) == owner and ov.next_hop(source, target) == owner
    set_leaves(ov, source, [leaf for leaf in ov.leaf_set(source) if leaf != owner])
    walked = ov.next_hop(source, target)
    assert walked == reference_next_hop(ov, source, target) == boundary - 3
    assert ov.progress_key(walked, target) > ov.progress_key(source, target)
    assert ov.route(source, target).hops == [source, walked, owner]
    assert reference_route(ov, source, target) == ([source, walked, owner], True)


def test_tapestry_fallback_on_a_stale_table(space):
    """An emptied slot (a table that predates a join) falls back to the
    best known node by the same measure as before."""
    gen = np.random.default_rng(13)
    ov = make_overlay("tapestry", space)
    members = _draw_keys(gen, space, 96)
    ov.build(members)
    fell_back = 0
    for target in _targets(gen, space, members, 60):
        source = members[int(gen.integers(len(members)))]
        owner = ov.owner_of(target)
        if source == owner:
            continue
        clear_slot(ov, source, ov._slot_toward(source, owner))
        step = ov.next_hop(source, target)
        assert step == reference_next_hop(ov, source, target)
        fell_back += step is not None
    assert fell_back >= 10


@pytest.mark.parametrize(
    "dims,bits",
    [(d, b) for d in (1, 2, 3, 4) for b in (8, 12, 16, 32, 60, 64) if b % d == 0],
)
def test_can_routes_equal_the_plateau_walk(dims, bits):
    """On an exact tessellation the walk CAN used to route by never has a
    sideways step to take (``CANOverlay._hop`` says why), so the base loop
    gives the same hops, fresh and after churn."""
    space = KeySpace(bits=bits, digit_bits=4)
    gen = np.random.default_rng([bits, dims])
    ov = make_overlay("can", space, can_dims=dims)
    ov.build(int(k) for k in gen.integers(0, space.size, 48, dtype=np.uint64))
    for _ in range(2):
        members = [int(k) for k in ov.keys]
        for target in _targets(gen, space, members, 45):
            source = members[int(gen.integers(len(members)))]
            hops, success = can_plateau_route(ov, source, target)
            result = ov.route(source, target)
            assert result.hops == hops, (source, target)
            assert result.success is success is True
        _churn(ov, gen, 80)


# ----------------------------------------------------------------------
# Step 1 of the Pastry rule: "the best leaf is the owner" == "the owner
# is a leaf"
# ----------------------------------------------------------------------
SMALL = KeySpace(bits=12, digit_bits=4)


@settings(max_examples=150, deadline=None)
@given(
    members=st.sets(st.integers(0, SMALL.size - 1), min_size=2, max_size=40),
    target=st.integers(0, SMALL.size - 1),
    leaf_set_size=st.sampled_from([2, 4, 8]),
)
def test_best_leaf_is_the_owner_exactly_when_the_owner_is_a_leaf(
    members, target, leaf_set_size
):
    ov = PastryOverlay(SMALL, leaf_set_size=leaf_set_size)
    ov.build(members)
    owner = ov.owner_of(target)
    for node in members:
        leaves = ov.leaf_set(node)
        best = leaves[0]
        for leaf in leaves[1:]:
            if SMALL.is_closer(leaf, best, target):
                best = leaf
        assert (best == owner) == (owner in leaves)
        if node != owner and owner in leaves:
            assert ov.next_hop(node, target) == owner


# ----------------------------------------------------------------------
# The route loop's guards on corrupted rows
# ----------------------------------------------------------------------
def _uniform_keys(seed: int, space: KeySpace) -> list:
    return [int(k) for k in np.random.default_rng(seed).integers(0, space.size, 64)]


@pytest.fixture
def chord(space):
    ov = ChordOverlay(space)
    ov.build(_uniform_keys(11, space))
    return ov


@pytest.fixture
def pastry(space):
    ov = PastryOverlay(space)
    ov.build(_uniform_keys(12, space))
    return ov


def _far_pair(ov: Overlay):
    """A (source, target) whose route takes at least two hops."""
    members = [int(k) for k in ov.keys]
    for source in members:
        for target in members:
            if ov.route(source, target).hop_count >= 2:
                return source, target
    raise AssertionError("no multi-hop route in this overlay")


class TestGuardsOnCorruptedRows:
    def test_chord_self_loop(self, chord):
        source, target = _far_pair(chord)
        set_chord_row(chord, source, [0])
        with pytest.raises(RoutingError, match="routing loop"):
            chord.route(source, target)

    def test_chord_non_member_entry(self, chord):
        source, target = _far_pair(chord)
        offset = next(
            o for o in range(1, chord_row(chord, source)[0])
            if not chord.is_member((source + o) % chord.space.size)
        )
        set_chord_row(chord, source, [offset])
        with pytest.raises(KeyError, match="is not a member"):
            chord.route(source, target)

    def test_chord_dead_end_is_a_failed_route(self, chord):
        source, target = _far_pair(chord)
        set_chord_row(chord, source, [])
        result = chord.route(source, target)
        assert result.hops == [source] and not result.success

    def _slot(self, pastry, source, target):
        slot = pastry._slot_toward(source, target)
        assert slot in slot_table(pastry, source), "route must start with a table hop"
        return slot

    def _table_pair(self, pastry):
        """A (source, target) whose first hop comes out of the table."""
        members = [int(k) for k in pastry.keys]
        for source in members:
            for target in members:
                if (
                    target not in pastry.leaf_set(source)
                    and target != source
                    and pastry._slot_toward(source, target) in slot_table(pastry, source)
                ):
                    return source, target
        raise AssertionError("no table hop in this overlay")

    def test_pastry_self_loop(self, pastry):
        source, target = self._table_pair(pastry)
        set_slot(pastry, source, self._slot(pastry, source, target), source)
        with pytest.raises(RoutingError, match="routing loop"):
            pastry.route(source, target)

    def test_pastry_non_monotone_entry(self, pastry):
        source, target = self._table_pair(pastry)
        space = pastry.space
        # A member worse than the source by both measures the guard accepts
        # (the target is a member, so it is the owner).
        worse = next(
            int(k) for k in pastry.keys
            if pastry.progress_key(int(k), target) > pastry.progress_key(source, target)
            and space.ring_distance(int(k), target) > space.ring_distance(source, target)
        )
        set_slot(pastry, source, self._slot(pastry, source, target), worse)
        with pytest.raises(RoutingError, match="non-monotone hop"):
            pastry.route(source, target)

    def test_pastry_non_member_entry(self, pastry):
        source, target = self._table_pair(pastry)
        ghost = next(
            k for k in (target ^ 1, target ^ 2, target ^ 3) if not pastry.is_member(k)
        )
        set_slot(pastry, source, self._slot(pastry, source, target), ghost)
        with pytest.raises(KeyError, match="is not a member"):
            pastry.route(source, target)

    def test_hop_limit(self, chord, monkeypatch):
        source, target = _far_pair(chord)
        monkeypatch.setattr(ChordOverlay, "MAX_ROUTE_HOPS", 1)
        with pytest.raises(RoutingError, match="exceeded 1 hops"):
            chord.route(source, target)
