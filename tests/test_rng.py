"""Tests for repro.sim.rng — deterministic named random streams."""

import ast
import os

import numpy as np
import pytest

from repro.lint import iter_python_files
from repro.lint.rules import match_stream, stream_uses
from repro.sim.rng import STREAMS, RngStreams, derive_seed


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "keys") == derive_seed(42, "keys")

    def test_name_sensitivity(self):
        assert derive_seed(42, "keys") != derive_seed(42, "keyz")

    def test_seed_sensitivity(self):
        assert derive_seed(41, "keys") != derive_seed(42, "keys")

    def test_64_bit_range(self):
        for name in ("a", "topology", "x" * 100):
            s = derive_seed(7, name)
            assert 0 <= s < 2**64

    def test_empty_name(self):
        # Edge case: an empty stream name is legal and deterministic.
        assert derive_seed(5, "") == derive_seed(5, "")


class TestRngStreams:
    def test_same_seed_same_draws(self):
        a = RngStreams(10).stream("x").integers(0, 1000, size=20)
        b = RngStreams(10).stream("x").integers(0, 1000, size=20)
        assert np.array_equal(a, b)

    def test_different_streams_independent(self):
        r = RngStreams(10)
        a = r.stream("a").integers(0, 2**32, size=50)
        b = r.stream("b").integers(0, 2**32, size=50)
        assert not np.array_equal(a, b)

    def test_stream_is_stateful_singleton(self):
        r = RngStreams(10)
        first = r.stream("s").integers(0, 1000)
        second = r.stream("s").integers(0, 1000)
        # Same generator object: state advanced, so a fresh replay differs.
        replay = RngStreams(10).stream("s").integers(0, 1000)
        assert first == replay
        assert r.stream("s") is r.stream("s")
        del second

    def test_adding_stream_does_not_perturb_existing(self):
        r1 = RngStreams(10)
        r1.stream("a").integers(0, 100, size=5)
        seq1 = r1.stream("a").integers(0, 100, size=5)

        r2 = RngStreams(10)
        r2.stream("a").integers(0, 100, size=5)
        r2.stream("brand-new")  # interleaved stream creation
        seq2 = r2.stream("a").integers(0, 100, size=5)
        assert np.array_equal(seq1, seq2)

    def test_fresh_restarts_stream(self):
        r = RngStreams(10)
        r.stream("x").integers(0, 100, size=3)
        fresh = r.fresh("x").integers(0, 100, size=3)
        replay = RngStreams(10).stream("x").integers(0, 100, size=3)
        assert np.array_equal(fresh, replay)

    def test_non_int_seed_rejected(self):
        with pytest.raises(TypeError):
            RngStreams("seed")  # type: ignore[arg-type]

    def test_randint_range(self):
        r = RngStreams(3)
        draws = [r.randint("d", 5, 8) for _ in range(100)]
        assert set(draws) <= {5, 6, 7}
        assert len(set(draws)) > 1

    def test_random_unit_interval(self):
        r = RngStreams(3)
        xs = [r.random("u") for _ in range(100)]
        assert all(0.0 <= x < 1.0 for x in xs)

    def test_choice(self):
        r = RngStreams(3)
        seq = ["a", "b", "c"]
        assert all(r.choice("c", seq) in seq for _ in range(20))

    def test_choice_empty_raises(self):
        with pytest.raises(ValueError):
            RngStreams(3).choice("c", [])

    def test_sample_distinct(self):
        r = RngStreams(3)
        out = r.sample("s", list(range(50)), 10)
        assert len(out) == 10
        assert len(set(out)) == 10

    def test_sample_too_large_raises(self):
        with pytest.raises(ValueError):
            RngStreams(3).sample("s", [1, 2], 3)

    def test_shuffled_preserves_multiset(self):
        r = RngStreams(3)
        items = list(range(30))
        out = r.shuffled("sh", items)
        assert sorted(out) == items
        assert items == list(range(30))  # input untouched

    def test_spawn_independent_namespace(self):
        parent = RngStreams(10)
        child1 = parent.spawn("trial")
        child2 = RngStreams(10).spawn("trial")
        a = child1.stream("k").integers(0, 10**9)
        b = child2.stream("k").integers(0, 10**9)
        assert a == b  # reproducible
        c = parent.spawn("other").stream("k").integers(0, 10**9)
        assert a != c  # distinct namespaces

    def test_draws_reject_unordered_populations(self):
        # Which element a seeded draw lands on depends on the population's
        # order, so ``choice``/``sample`` index it and fail loudly on a set
        # or a raw dict view instead of drawing from an arbitrary order.
        r = RngStreams(1)
        for population in ({3, 1, 2}, {"a": 1, "b": 2}.keys(), {"a": 1}.values()):
            with pytest.raises(TypeError):
                r.sample("s", population, 1)
            with pytest.raises(TypeError):
                r.choice("s", population)


class TestStreamRegistry:
    """``STREAMS`` stays a true catalogue: lint rule BRS010 checks each
    draw site against it, and these check the registry itself."""

    @staticmethod
    def _draw_sites():
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src", "repro")
        for path in iter_python_files([src]):
            if path.endswith(os.path.join("sim", "rng.py")):
                continue
            with open(path, encoding="utf-8") as fh:
                yield from (name for name, _ in stream_uses(ast.parse(fh.read())))

    def test_every_entry_has_a_draw_site(self):
        used = {match_stream(name, STREAMS) for name in self._draw_sites()}
        stale = sorted(set(STREAMS) - used)
        assert not stale, f"STREAMS entries with no draw site in src/repro: {stale}"

    def test_shared_entries_give_a_reason(self):
        for name, spec in STREAMS.items():
            if spec.shared:
                assert spec.reason.strip(), f"{name} is shared without a reason"
