"""Chord-specific tests: successor ownership, finger geometry."""

import numpy as np
import pytest

from repro.core import BristleConfig, BristleNetwork
from repro.overlay import ChordOverlay, KeySpace
from repro.sim import RngStreams

from .oracles.build import reference_build
from .oracles.routing import chord_fingers, chord_successors
from .oracles.rows import chord_row


@pytest.fixture
def chord(space):
    rng = RngStreams(23)
    keys = [int(k) for k in space.random_keys(rng, "keys", 128)]
    ov = ChordOverlay(space)
    ov.build(keys)
    return ov, sorted(keys)


class TestOwnership:
    def test_owner_is_successor(self, chord, space):
        ov, keys = chord
        arr = np.asarray(keys, dtype=np.uint64)
        for t in (0, keys[0], keys[0] + 1, keys[-1] + 1, space.size - 1):
            expected = space.successor_key(arr, t % space.size)
            assert ov.owner_of(t % space.size) == expected

    def test_wraparound_ownership(self, chord, space):
        ov, keys = chord
        # A key past the largest member wraps to the smallest member.
        assert ov.owner_of((keys[-1] + 1) % space.size) == keys[0]


class TestFingers:
    def test_fingers_are_members(self, chord):
        ov, keys = chord
        for k in keys[:20]:
            assert set(ov.neighbors_of(k)) <= set(keys)

    def test_successor_pointer(self, chord):
        ov, keys = chord
        for i, k in enumerate(keys[:20]):
            assert ov.successor(k) == keys[(i + 1) % len(keys)]

    def test_finger_count_logarithmic(self, chord):
        ov, keys = chord
        # 128 nodes in a 32-bit space: ≈ log2(128) = 7 distinct fingers
        # (plus successor list); far fewer than the 32 raw finger starts.
        sizes = [len(ov.neighbors_of(k)) for k in keys]
        assert max(sizes) <= 7 + 4 + 6  # fingers + successors + slack

    def test_clockwise_monotone_routing(self, chord, space):
        ov, keys = chord
        rng = RngStreams(29)
        for t in space.random_keys(rng, "targets", 30, unique=False):
            t = int(t)
            r = ov.route(keys[0], t)
            owner = ov.owner_of(t)
            ds = [space.clockwise_distance(h, owner) for h in r.hops]
            assert ds == sorted(ds, reverse=True)
            assert ds[-1] == 0

    def test_never_overshoots_owner(self, chord, space):
        """Chord's closest-preceding rule never routes past the owner."""
        ov, keys = chord
        rng = RngStreams(30)
        for t in space.random_keys(rng, "targets", 30, unique=False):
            t = int(t)
            owner = ov.owner_of(t)
            r = ov.route(keys[5], t)
            start_cw = space.clockwise_distance(keys[5], owner)
            for h in r.hops:
                assert space.clockwise_distance(keys[5], h) <= start_cw or h == keys[5]


class TestConfig:
    def test_successor_list_size_validated(self, space):
        with pytest.raises(ValueError):
            ChordOverlay(space, successor_list_size=0)

    def test_small_ring_fingers_dedup(self, space):
        ov = ChordOverlay(space)
        ov.build([10, 20, 30])
        for k in (10, 20, 30):
            nbrs = ov.neighbors_of(k)
            assert len(nbrs) == len(set(nbrs))
            assert k not in nbrs


def _ring_cases(space):
    """Key sets that stress the bulk kernel's index arithmetic."""
    top = space.size - 1
    rng = np.random.default_rng(12)
    dense = rng.integers(0, space.size, 300).tolist()
    return {
        "random": dense,
        "duplicates": dense[:40] * 3,
        "wrap-around": [0, 1, 2, top, top - 1, top - 5, space.size // 2],
        "clustered": list(range(1000, 1040)) + [top],
        "pair": [5, top],
        "single": [77],
    }


def _assert_bulk_matches_per_node(space, keys, successors=4):
    bulk = ChordOverlay(space, successor_list_size=successors)
    bulk.build(keys)
    reference = reference_build(ChordOverlay(space, successor_list_size=successors), keys)
    assert bulk._rows == reference._rows
    assert list(bulk._rows) == list(reference._rows)
    # ... and the rows hold exactly the fingers and successors of the
    # definitions, as clockwise offsets in ascending order.
    for key in bulk._rows:
        successors_of_key = chord_successors(bulk, key)
        expected = set(chord_fingers(bulk, key)) | set(successors_of_key)
        assert chord_row(bulk, key) == sorted(
            space.clockwise_distance(key, f) for f in expected
        )
        assert bulk.neighbors_of(key) == sorted(expected)
        if successors_of_key:
            assert bulk.successor(key) == successors_of_key[0]
    return bulk


class TestBulkBuildParity:
    """``_build_all`` must leave exactly the state of the per-member
    reference build (``tests/oracles/build.py``): the same row for every
    member, members in the same order."""

    @pytest.mark.parametrize(
        "case", ["random", "duplicates", "wrap-around", "clustered", "pair", "single"]
    )
    @pytest.mark.parametrize("successors", [1, 4, 64])
    def test_same_state_as_per_node_build(self, space, case, successors):
        _assert_bulk_matches_per_node(space, _ring_cases(space)[case], successors)

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_random_rings(self, seed):
        rng = np.random.default_rng(seed)
        space = KeySpace(bits=int(rng.choice([8, 16, 32, 60])), digit_bits=4)
        n = int(rng.integers(1, min(200, space.size)))
        _assert_bulk_matches_per_node(space, rng.integers(0, space.size, n).tolist())

    def test_full_width_ring(self):
        """Past 2**53 no key may be located through float64."""
        space = KeySpace(bits=63, digit_bits=7)
        keys = [0, 1, space.size - 1, space.size // 2, space.size // 2 + 1]
        _assert_bulk_matches_per_node(space, keys)

    @pytest.mark.parametrize("successors", [1, 4])
    def test_64_bit_ring_takes_the_same_kernel(self, successors):
        """``key ± 2**63`` wraps mod 2**64 in uint64, which is the ring."""
        space = KeySpace(bits=64, digit_bits=4)
        keys = [0, 1, 3, 1 << 40, (1 << 63) - 1, 1 << 63, (1 << 63) + 1, (1 << 64) - 2]
        _assert_bulk_matches_per_node(space, keys, successors)


class TestTinyRingLeave:
    """A leave from a ring of at most ``r + 1`` members: every member held
    the leaver, its own successor at rank ``r`` — the one the repair walk
    missed while it was sized by the membership *after* the removal."""

    @pytest.mark.parametrize(
        "bits,members,leaver,successor,left",
        [
            (32, [10, 20, 30, 40, 50], 20, 30, [10, 40, 50]),
            (8, [7, 49, 65, 81, 205], 49, 65, [7, 81, 205]),
        ],
    )
    def test_successor_forgets_the_leaver(self, bits, members, leaver, successor, left):
        ov = ChordOverlay(KeySpace(bits=bits, digit_bits=4))
        ov.build(members)
        ov.remove_node(leaver)
        assert ov.neighbors_of(successor) == left
        fresh = ChordOverlay(ov.space)
        fresh.build([k for k in members if k != leaver])
        assert ov._rows == fresh._rows

    def test_network_of_five_survives_leave_then_join(self):
        """2 stationary + 3 mobile = a five-member mobile layer with
        ``r = 4``; joins register the newcomer with every neighbour the
        overlay lists, so a dangling one is a ``KeyError`` in waiting."""
        net = BristleNetwork(
            BristleConfig(seed=1), num_stationary=2, num_mobile=3, router_count=60
        )
        leaver = net.mobile_keys[1]
        net.leave_mobile_node(leaver)
        layer = net.mobile_layer
        for member in layer.keys.tolist():
            assert set(layer.neighbors_of(member)) <= set(net.nodes), member
        newcomer = next(k for k in range(leaver + 1, leaver + 9) if k not in net.nodes)
        net.join_mobile_node(newcomer)
        for member in layer.keys.tolist():
            assert set(layer.neighbors_of(member)) == set(net.nodes) - {member}
        assert set(net.nodes[newcomer].registry) == set(net.nodes) - {newcomer}
