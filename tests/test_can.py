"""CAN-specific tests: coordinates, zones, tessellation, hop scaling."""


import numpy as np
import pytest

from repro.overlay import CANOverlay, KeySpace, Zone
from repro.sim import RngStreams

from .oracles.build import can_neighbors


@pytest.fixture
def can(space):
    rng = RngStreams(83)
    keys = [int(k) for k in space.random_keys(rng, "keys", 200)]
    ov = CANOverlay(space, dims=2)
    ov.build(keys)
    return ov, keys


class TestConstruction:
    def test_dims_must_divide_bits(self, space):
        with pytest.raises(ValueError):
            CANOverlay(space, dims=5)  # 32 % 5 != 0
        with pytest.raises(ValueError):
            CANOverlay(space, dims=0)

    def test_axis_extent(self, space):
        assert CANOverlay(space, dims=2).axis_extent == 2**16
        assert CANOverlay(space, dims=4).axis_extent == 2**8


class TestCoordinates:
    def test_point_in_range(self, can, space):
        ov, keys = can
        for k in keys[:20]:
            p = ov.point_of(k)
            assert len(p) == 2
            assert all(0 <= c < ov.axis_extent for c in p)

    def test_distinct_keys_distinct_points(self, can):
        ov, keys = can
        points = {ov.point_of(k) for k in keys}
        assert len(points) == len(keys)

    def test_deinterleave_roundtrip(self, space):
        ov = CANOverlay(space, dims=2)
        # Key with alternating bits 1010... → axis0 gets all the 1s.
        key = int("10" * 16, 2)
        x, y = ov.point_of(key)
        assert x == 2**16 - 1
        assert y == 0


class TestZones:
    def test_every_member_has_boxes(self, can):
        ov, keys = can
        for k in keys:
            assert len(ov.zone_of(k)) >= 1

    def test_own_point_inside_own_zone(self, can):
        ov, keys = can
        for k in keys[:50]:
            p = ov.point_of(k)
            assert any(z.contains(p) for z in ov.zone_of(k))

    def test_tessellation_covers_random_points(self, can, space):
        """owner_of must succeed for any point — no gaps."""
        ov, keys = can
        rng = RngStreams(84)
        for t in space.random_keys(rng, "targets", 200, unique=False):
            assert ov.is_member(ov.owner_of(int(t)))

    def test_zones_disjoint(self, can, space):
        """No point can live in two members' zones."""
        ov, keys = can
        rng = RngStreams(85)
        for t in space.random_keys(rng, "targets", 100, unique=False):
            point = ov.point_of(int(t))
            holders = [
                m for m, boxes in ov._zone_boxes.items()
                if any(z.contains(point) for z in boxes)
            ]
            assert len(holders) == 1

    def test_total_area_is_whole_torus(self, can):
        ov, keys = can
        total = 0
        for k in keys:
            for z in ov.zone_of(k):
                area = 1
                for s in z.size:
                    area *= s
                total += area
        assert total == ov.axis_extent ** ov.dims


class TestZoneGeometry:
    def test_axis_distance_inside_zero(self):
        z = Zone(start=(0, 0), size=(4, 4))
        assert z.axis_distance(0, 2, 16) == 0

    def test_axis_distance_wraps(self):
        z = Zone(start=(0, 0), size=(4, 4))
        assert z.axis_distance(0, 15, 16) == 1  # wraps to start 0

    def test_abuts_face(self):
        a = Zone(start=(0, 0), size=(4, 4))
        b = Zone(start=(4, 0), size=(4, 4))
        assert a.abuts(b, 16)
        assert b.abuts(a, 16)

    def test_abuts_wraparound(self):
        a = Zone(start=(12, 0), size=(4, 4))
        b = Zone(start=(0, 0), size=(4, 4))
        assert a.abuts(b, 16)

    def test_corner_touch_not_abutting(self):
        a = Zone(start=(0, 0), size=(4, 4))
        b = Zone(start=(4, 4), size=(4, 4))
        assert not a.abuts(b, 16)

    def test_disjoint_not_abutting(self):
        a = Zone(start=(0, 0), size=(2, 2))
        b = Zone(start=(8, 8), size=(2, 2))
        assert not a.abuts(b, 16)


class TestAdjacencyParity:
    """Neighbours from the trie-neighbourhood query equal pairwise
    ``Zone.abuts`` over every box after every event of a join/leave
    script, at each torus dimension up to 4 (touching across the wrap
    differs by dimension), through the 3- and 2-member tori where one box
    touches a neighbour at both ends of an axis."""

    @pytest.mark.parametrize(
        "dims,bits", [(d, b - b % d) for d in (1, 2, 3, 4) for b in (8, 32, 64)]
    )
    def test_after_every_event(self, dims, bits):
        space = KeySpace(bits=bits, digit_bits=1)
        gen = np.random.default_rng([dims, bits])
        pool = list(dict.fromkeys(gen.integers(0, space.size, 20, dtype=np.uint64).tolist()))
        members = set(pool[:3])
        ov = CANOverlay(space, dims=dims)
        ov.build(members)
        # Grow to the whole pool, drain to two members, refill to three.
        script = pool[3:] + pool[:-2] + [pool[0], pool[-1], pool[1]]
        for event, key in enumerate([None] + script):
            if key is not None:
                (ov.remove_node if key in members else ov.add_node)(key)
                members ^= {key}
            fresh = CANOverlay(space, dims=dims)
            fresh.build(members)
            for m in sorted(members):
                assert (
                    ov.neighbors_of(m) == can_neighbors(ov, m) == fresh.neighbors_of(m)
                ), (event, m)


class TestRouting:
    def test_routes_reach_owner(self, can, space):
        ov, keys = can
        rng = RngStreams(86)
        for t in space.random_keys(rng, "targets", 50, unique=False):
            r = ov.route(keys[0], int(t))
            assert r.success
            assert r.terminus == ov.owner_of(int(t))

    def test_constant_state_in_n(self, space):
        """CAN's signature: ~2D neighbours regardless of N (§2.3.2)."""
        rng = RngStreams(87)
        means = []
        for n in (64, 512):
            keys = [int(k) for k in space.random_keys(rng, f"k{n}", n)]
            ov = CANOverlay(space, dims=2)
            ov.build(keys)
            means.append(ov.state_size_stats()["mean"])
        # State does not grow with N (allow small noise).
        assert means[1] <= means[0] * 1.5

    def test_polynomial_hop_scaling(self, space):
        """Hops ~ N^(1/D): quadrupling N roughly doubles hops (D = 2)."""
        rng = RngStreams(88)
        hops = []
        for n in (64, 1024):
            keys = [int(k) for k in space.random_keys(rng, f"k{n}", n)]
            ov = CANOverlay(space, dims=2)
            ov.build(keys)
            gen = rng.stream(f"targets{n}")
            sample = [
                ov.route(keys[int(gen.integers(n))], int(gen.integers(space.size))).hop_count
                for _ in range(80)
            ]
            hops.append(np.mean(sample))
        # 16× nodes → ~4× hops; demand at least 2.5× (vs ~1.4× for log).
        assert hops[1] / hops[0] > 2.5

    def test_higher_dims_fewer_hops(self, space):
        rng = RngStreams(89)
        keys = [int(k) for k in space.random_keys(rng, "k", 512)]
        results = {}
        for dims in (1, 4):
            ov = CANOverlay(space, dims=dims)
            ov.build(keys)
            gen = rng.stream(f"t{dims}")
            sample = [
                ov.route(keys[int(gen.integers(len(keys)))], int(gen.integers(space.size))).hop_count
                for _ in range(60)
            ]
            results[dims] = np.mean(sample)
        assert results[4] < results[1]
