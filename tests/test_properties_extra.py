"""Additional property-based tests: CAN geometry, naming schemes,
non-member trees, and the engine's ordering guarantees."""


import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core import ClusteredNaming, build_non_member_tree
from repro.overlay import CANOverlay, ChordOverlay, KeySpace
from repro.sim import Engine, RngStreams

SPACE16 = KeySpace(bits=16, digit_bits=4)
KEYS16 = st.integers(min_value=0, max_value=SPACE16.size - 1)


class TestCANProperties:
    @given(keys=st.lists(KEYS16, min_size=1, max_size=32, unique=True))
    @settings(max_examples=60, deadline=None)
    def test_tessellation_complete_and_disjoint(self, keys):
        ov = CANOverlay(SPACE16, dims=2)
        ov.build(keys)
        # Total area equals the torus; every member point is in exactly
        # its own zone.
        total = 0
        for k in keys:
            for z in ov.zone_of(k):
                area = 1
                for s in z.size:
                    area *= s
                total += area
        assert total == ov.axis_extent**2
        for k in keys:
            p = ov.point_of(k)
            holders = [
                m
                for m in keys
                if any(z.contains(p) for z in ov.zone_of(m))
            ]
            assert holders == [k]

    @given(keys=st.lists(KEYS16, min_size=2, max_size=32, unique=True), target=KEYS16)
    @settings(max_examples=60, deadline=None)
    def test_routes_always_reach_owner(self, keys, target):
        ov = CANOverlay(SPACE16, dims=2)
        ov.build(keys)
        r = ov.route(keys[0], target)
        assert r.success
        assert r.terminus == ov.owner_of(target)

    @given(key=KEYS16)
    def test_point_mapping_bijective_prefix(self, key):
        ov = CANOverlay(SPACE16, dims=2)
        x, y = ov.point_of(key)
        # Re-interleave and compare.
        rebuilt = 0
        for j in range(SPACE16.bits):
            axis = j % 2
            pos_in_axis = j // 2
            coord = (x, y)[axis]
            bit = (coord >> (ov.bits_per_axis - 1 - pos_in_axis)) & 1
            rebuilt = (rebuilt << 1) | bit
        assert rebuilt == key


class TestClusteredNamingProperties:
    @given(
        stationary=st.integers(min_value=1, max_value=200),
        mobile=st.integers(min_value=0, max_value=200),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_band_membership_exact(self, stationary, mobile, seed):
        space = KeySpace(bits=32, digit_bits=4)
        scheme = ClusteredNaming.for_population(space, stationary, mobile)
        assignment = scheme.assign(stationary, mobile, RngStreams(seed))
        for k in assignment.stationary_keys:
            assert scheme.is_stationary_key(k)
        for k in assignment.mobile_keys:
            assert not scheme.is_stationary_key(k)
        assert len(set(assignment.all_keys)) == stationary + mobile

    @given(
        stationary=st.integers(min_value=1, max_value=500),
        mobile=st.integers(min_value=1, max_value=500),
    )
    @settings(max_examples=40)
    def test_band_width_tracks_nabla(self, stationary, mobile):
        space = KeySpace(bits=32, digit_bits=4)
        scheme = ClusteredNaming.for_population(space, stationary, mobile)
        expected = stationary / (stationary + mobile)
        actual = (scheme.high - scheme.low) / space.size
        assert actual == pytest.approx(expected, abs=0.02)


class TestNonMemberTreeProperties:
    @given(
        member_idx=st.lists(
            st.integers(min_value=0, max_value=99), min_size=1, max_size=25, unique=True
        ),
        root=KEYS16,
    )
    @example(member_idx=[0], root=5112)  # the root is itself an overlay member
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_tree_always_valid(self, member_idx, root):
        space = SPACE16
        rng = RngStreams(5)
        keys = [int(k) for k in space.random_keys(rng, "keys", 100)]
        ov = ChordOverlay(space)
        ov.build(keys)
        members = [keys[i] for i in member_idx if keys[i] != root]
        tree = build_non_member_tree(root, members, ov)
        tree.validate()
        assert tree.size >= len(tree.members)


class TestEngineProperties:
    @given(
        times=st.lists(
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=60)
    def test_dispatch_order_sorted_and_stable(self, times):
        engine = Engine()
        fired = []
        for i, t in enumerate(times):
            engine.schedule(t, lambda i=i, t=t: fired.append((t, i)))
        engine.run()
        # Events fire in time order; ties fire in scheduling order.
        assert fired == sorted(fired, key=lambda x: (x[0], x[1]))
        assert len(fired) == len(times)


class TestTapestryProperties:
    @given(
        keys=st.lists(KEYS16, min_size=1, max_size=40, unique=True),
        target=KEYS16,
    )
    @settings(max_examples=60, deadline=None)
    def test_surrogate_root_always_member(self, keys, target):
        from repro.overlay import TapestryOverlay

        ov = TapestryOverlay(SPACE16)
        ov.build(keys)
        assert ov.owner_of(target) in set(keys)

    @given(keys=st.lists(KEYS16, min_size=1, max_size=40, unique=True))
    @settings(max_examples=60, deadline=None)
    def test_members_own_themselves(self, keys):
        from repro.overlay import TapestryOverlay

        ov = TapestryOverlay(SPACE16)
        ov.build(keys)
        for k in keys:
            assert ov.owner_of(k) == k

    @given(
        keys=st.lists(KEYS16, min_size=2, max_size=40, unique=True),
        target=KEYS16,
    )
    @settings(max_examples=60, deadline=None)
    def test_routes_converge_to_surrogate_root(self, keys, target):
        from repro.overlay import TapestryOverlay

        ov = TapestryOverlay(SPACE16)
        ov.build(keys)
        owner = ov.owner_of(target)
        for src in keys[:4]:
            r = ov.route(src, target)
            assert r.success
            assert r.terminus == owner
