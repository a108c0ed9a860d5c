"""Both production LDT builders against the Fig-4 recursion.

``build_ldt`` (the scalar single-sort kernel) and ``LDTForest.tree`` (the
level-synchronous array kernel plus the shared pre-order pass) must each
materialise exactly what ``tests/oracles/ldt.py::recursive_ldt`` attaches:
row order, ``nodes`` insertion order, ``edges``, ``children``, ``assigned``
and ``level`` — on registries drawn to hit what the identity "one stable
sort, then arithmetic progressions" could get wrong: capacity ties,
fractional workloads, senders with zero or negative availability, pure
delegation chains, a custom tie-break, and keys wide enough (60, 63 bits)
that the default ``float(key)`` secondary collides.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ForestSpec, LDTMember, build_ldt, build_ldt_forest

from .oracles.ldt import assert_tree_matches, recursive_ldt, replay_forest_tree

REGIMES = ("ties", "fractional", "overloaded", "chain", "wide")


def draw_spec(seed: int, size: int, regime: str, bits: int, custom_tie: bool) -> ForestSpec:
    rng = np.random.default_rng(seed)
    keys = set()
    while len(keys) < size + 1:
        keys.update(
            int(k) for k in rng.integers(0, 2**bits, size + 1, dtype=np.uint64)
        )
    root_key, *member_keys = rng.permutation(np.array(sorted(keys), dtype=object))[: size + 1]
    if regime == "ties":  # few distinct capacities, whole-number workloads
        caps = rng.integers(1, 4, size).astype(float)
        used = rng.integers(0, 2, size).astype(float)
        root = (float(rng.integers(1, 6)), 0.0)
    elif regime == "fractional":
        caps = rng.integers(1, 16, size).astype(float)
        used = np.round(rng.uniform(0.0, 3.0, size), 2)
        root = (float(rng.integers(2, 16)), float(np.round(rng.uniform(0, 2), 2)))
    elif regime == "overloaded":  # used >= capacity for most senders
        caps = rng.integers(1, 6, size).astype(float)
        used = caps * rng.uniform(0.8, 1.6, size)
        root = (2.0, float(rng.choice([1.0, 2.0, 3.5])))  # Avail 1, 0, -1.5
    elif regime == "chain":  # Avail - v <= 0 everywhere
        caps = np.ones(size)
        used = np.zeros(size)
        root = (1.0, 0.0)
    else:  # wide fan-outs: a few levels at most
        caps = rng.integers(8, 64, size).astype(float)
        used = rng.uniform(0.0, 1.0, size)
        root = (float(rng.integers(8, 64)), 0.0)
    registry = [
        LDTMember(int(k), float(c), float(u))
        for k, c, u in zip(member_keys, caps, used)
    ]
    # Reverse-key order through a coarse bucket: ties *within* the
    # tie-break too, so stability is still what decides.
    tie = (lambda m: -float(m.key >> 8)) if custom_tie else None
    return ForestSpec(
        root=LDTMember(int(root_key), *root),
        registry=registry,
        unit_cost=float(rng.choice([0.5, 1.0, 1.0, 2.5])),
        tie_break=tie,
    )


SPECS = st.builds(
    draw_spec,
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(0, 400),
    regime=st.sampled_from(REGIMES),
    bits=st.sampled_from((32, 60, 63)),
    custom_tie=st.booleans(),
)


def reference(spec: ForestSpec):
    return recursive_ldt(
        spec.root, spec.registry, spec.unit_cost, tie_break=spec.tie_break
    )


class TestBuildersMatchTheRecursion:
    @settings(max_examples=60, deadline=None)
    @given(spec=SPECS)
    def test_scalar_kernel_forest_and_oracle_agree(self, spec):
        expected = reference(spec)
        scalar = build_ldt(
            spec.root, spec.registry, spec.unit_cost, tie_break=spec.tie_break
        )
        forest = build_ldt_forest([spec])
        assert_tree_matches(scalar, expected)
        assert_tree_matches(forest.tree(0), expected)
        assert forest.tree(0) == scalar
        scalar.validate()

    @settings(max_examples=15, deadline=None)
    @given(specs=st.lists(SPECS, min_size=2, max_size=6))
    def test_every_tree_of_a_mixed_batch(self, specs):
        forest = build_ldt_forest(specs)
        for index, spec in enumerate(specs):
            assert_tree_matches(forest.tree(index), reference(spec))
            assert_tree_matches(
                forest.tree(index), replay_forest_tree(forest, index)
            )

    @pytest.mark.parametrize("bits", (60, 63))
    def test_keys_that_collide_as_floats_keep_registry_order(self, bits):
        # Above 2**53 neighbouring keys share one float, so the default
        # secondary ties and the stable sort must fall back on input order.
        base = 2**bits - 2**10
        registry = [LDTMember(base + i, 2.0) for i in (5, 3, 4, 1, 2, 0)]
        assert len({float(m.key) for m in registry}) == 1
        spec = ForestSpec(root=LDTMember(7, 2.0), registry=registry)
        expected = reference(spec)
        assert list(expected[0])[1:3] == [base + 5, base + 4]
        assert_tree_matches(build_ldt(spec.root, spec.registry), expected)
        assert_tree_matches(build_ldt_forest([spec]).tree(0), expected)


class TestLongDelegationChains:
    """Root + 3 000 registrants of capacity 1.0: every sender delegates to
    one head.  The recursion needed one Python frame per level and died
    with ``RecursionError`` from ~1 000 members on."""

    def chain(self, n=3000):
        return LDTMember(0, 1.0), [LDTMember(i + 1, 1.0) for i in range(n)]

    def test_scalar_kernel(self):
        root, registry = self.chain()
        tree = build_ldt(root, registry)
        assert tree.depth == tree.message_count == 3000
        assert tree.keys == tuple(range(3001))  # capacity ties: key order
        assert tree.levels == tuple(range(3001))
        assert tree.fanouts == (1,) * 3000
        tree.validate()

    def test_forest(self):
        root, registry = self.chain()
        forest = build_ldt_forest([ForestSpec(root=root, registry=registry)])
        assert int(forest.depths()[0]) == 3000
        assert forest.tree(0) == build_ldt(root, registry)

    def test_the_recursion_cannot(self):
        with pytest.raises(RecursionError):
            recursive_ldt(*self.chain())
