"""The fold-on-read telemetry feeds against the eager feeds they replaced.

``Histogram.observe`` and ``NodeLoadLedger.add`` are appends; the sketch
and the count matrix are folded from them when someone reads them.  Every
read must show what the eager feeds in ``tests/oracles/telemetry.py``
show: the reference histogram takes one scalar ``observe`` per value in
arrival order, the reference ledger the same charges.  The op sequences
interleave feeds with reads, ``reset`` and the ``--jobs`` merge of a
worker's ``export_state()``.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.metrics import Histogram, MetricsRegistry, QuantileSketch
from repro.sim.nodestats import _PENDING_MAX, KINDS, NodeLoadLedger
from tests.oracles.telemetry import EagerHistogram, EagerLedger, EagerSketch

NAMES = ("a", "b")


def canon(obj):
    """``obj`` with every NaN replaced by a marker, so ``==`` is NaN-aware."""
    if isinstance(obj, float) and math.isnan(obj):
        return "nan"
    if isinstance(obj, dict):
        return {k: canon(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canon(v) for v in obj]
    return obj


class World:
    """A registry and a ledger: the program's, or the eager reference."""

    def __init__(self, eager: bool) -> None:
        self.eager = eager
        self.metrics = MetricsRegistry()
        self.ledger = EagerLedger() if eager else NodeLoadLedger()
        for name in NAMES:
            if eager:
                self.metrics._histograms[name] = EagerHistogram(name)
            else:
                self.metrics.histogram(name)

    def feed(self, op) -> None:
        kind = op[0]
        if kind == "observe":
            self.metrics.histogram(op[1]).observe(op[2])
        elif kind == "observe_many":
            h = self.metrics.histogram(op[1])
            if self.eager:  # the reference: one scalar observe per value
                for v in op[2]:
                    h.observe(v)
            else:
                h.observe_many(op[2])
        elif kind == "add":
            self.ledger.add(op[1], op[2], op[3])
        elif kind == "add_many":
            self.ledger.add_many(op[1], op[2], op[3])
        elif kind == "register":
            self.ledger.register_nodes(op[1])

    def export(self):
        return {"metrics": self.metrics.export_state(), "ledger": self.ledger.export_state()}

    def merge(self, state) -> None:
        self.metrics.merge_state(state["metrics"])
        self.ledger.merge_state(state["ledger"])


def _stats(w: World):
    return [
        (h.mean(), h.std(), h.min(), h.max(), h.total(), len(h), h.percentile(50))
        for h in (w.metrics.histogram(n) for n in NAMES)
    ]


READERS = {
    "snapshot": lambda w: w.metrics.snapshot(),
    "export": World.export,
    "tails": lambda w: w.metrics.tail_latency_section(),
    "sketch": lambda w: [w.metrics.histogram(n).sketch.export_state() for n in NAMES],
    "quantile": lambda w: [w.metrics.histogram(n).sketch_quantile(99.0) for n in NAMES],
    "stats": _stats,
    "keys": lambda w: w.ledger.keys,
    "len": lambda w: len(w.ledger),
    "total": lambda w: [w.ledger.total(k) for k in KINDS],
    "counts": lambda w: [w.ledger.counts(k) for k in KINDS],
    "counts_array": lambda w: [w.ledger.counts_array(k).tolist() for k in KINDS],
    "imbalance": lambda w: [w.ledger.imbalance(k) for k in KINDS],
    "hotspots": lambda w: [w.ledger.hotspots(k, 3) for k in KINDS],
    "manifest": lambda w: w.ledger.manifest_section(),
}


def assert_same(new: World, ref: World) -> None:
    assert canon(new.export()) == canon(ref.export())
    assert canon(new.metrics.snapshot()) == canon(ref.metrics.snapshot())
    assert new.ledger.keys == ref.ledger.keys
    for kind in KINDS:
        assert new.ledger.counts(kind) == ref.ledger.counts(kind)


def run(ops) -> None:
    with np.errstate(all="ignore"):  # means and spreads of ±inf samples
        _run(ops)


def _run(ops) -> None:
    new, ref = World(eager=False), World(eager=True)
    for op in ops:
        if op[0] == "read":
            assert canon(READERS[op[1]](new)) == canon(READERS[op[1]](ref)), op[1]
            assert_same(new, ref)
        elif op[0] == "reset":
            new.metrics.reset()
            ref.metrics.reset()
        elif op[0] == "merge":
            workers = World(eager=False), World(eager=True)
            for w in workers:
                for sub in op[1]:
                    w.feed(sub)
            states = [w.export() for w in workers]
            assert canon(states[0]) == canon(states[1])
            new.merge(states[0])
            ref.merge(states[1])
        else:
            new.feed(op)
            ref.feed(op)
    assert_same(new, ref)


VALUES = st.one_of(
    st.integers(-1000, 1000),
    st.integers(-(2**60), 2**60),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0, 0.0, -0.0, 0.5, -2.5, 1 / 3, math.nan, math.inf, -math.inf]),
)
BATCHES = st.one_of(
    st.lists(VALUES, max_size=80),
    st.lists(st.integers(-50, 50), min_size=60, max_size=140),  # the array pass
)
KEYS = st.sampled_from([0, 1, 2, 3, 7, 40, 2**63, 2**64 - 1, -5])
NAME = st.sampled_from(NAMES)
KIND = st.sampled_from(KINDS)

FEEDS = st.one_of(
    st.tuples(st.just("observe"), NAME, VALUES),
    st.tuples(st.just("observe_many"), NAME, BATCHES),
    st.tuples(st.just("add"), KIND, KEYS, st.integers(-2, 5)),
    st.tuples(st.just("add_many"), KIND, st.lists(KEYS, max_size=40), st.none()),
    st.lists(st.tuples(KEYS, st.integers(-2, 5)), max_size=40).flatmap(
        lambda pairs: st.tuples(
            st.just("add_many"),
            KIND,
            st.just([k for k, _ in pairs]),
            st.just([a for _, a in pairs]),
        )
    ),
    st.tuples(st.just("register"), st.lists(KEYS, max_size=6)),
)
OPS = st.lists(
    st.one_of(
        FEEDS,
        FEEDS,
        st.tuples(st.just("read"), st.sampled_from(sorted(READERS))),
        st.just(("reset",)),
        st.tuples(st.just("merge"), st.lists(FEEDS, max_size=8)),
    ),
    max_size=40,
)


@settings(max_examples=80, deadline=None)
@given(OPS)
def test_every_read_sees_the_eager_feeds(ops):
    run(ops)


@settings(max_examples=60, deadline=None)
@given(st.lists(BATCHES, max_size=12))
def test_small_bucket_cap_collapses_alike_on_either_route(batches):
    # Collapsing folds every bucket below the top max_buckets indices
    # into the lowest kept one, whenever it happens: the array pass may
    # collapse once at the end of a batch.
    folded, scalar = QuantileSketch(max_buckets=8), EagerSketch(max_buckets=8)
    for batch in batches:
        folded.observe_in_order(batch)
        for v in batch:
            scalar.observe(v)
        assert folded.export_state() == scalar.export_state()


@pytest.mark.parametrize("reader", sorted(READERS))
def test_each_reader_folds_first(reader):
    feeds = [
        ("observe", "a", 2.5),
        ("observe_many", "b", [3, 1, 4, 1, 5]),
        ("add", "routed", 7, 2),
        ("add_many", "detour", [7, 3, 3], None),
        ("add_many", "ldt_fanout", [9, 7], [4, 1]),
    ]
    run(feeds + [("read", reader)] + feeds + [("read", reader)])


def test_fractional_running_sum_then_whole_batch():
    run([
        ("observe", "a", 1 / 3),
        ("observe_many", "a", [1, 2]),
        ("read", "sketch"),
        ("observe_many", "a", list(range(-40, 100))),
        ("read", "snapshot"),
    ])


def test_whole_batch_at_the_bucket_cap():
    # Fractions spread over more than the 4 096-bucket cap, then whole
    # numbers: the running sum is fractional, so they fold one observe at
    # a time into a sketch that collapses.  (The array pass collapsing is
    # test_small_bucket_cap_collapses_alike_on_either_route.)
    spread = np.exp(np.random.default_rng(5).uniform(-30.0, 30.0, 9_000)).tolist()
    ops = [("observe_many", "a", spread), ("read", "sketch")]
    ops += [("observe_many", "a", list(range(k, 3000, 7))) for k in range(7)]
    run(ops + [("read", "export")])
    h = Histogram("a")
    h.observe_many(spread)
    assert len(h.sketch._pos) == h.sketch.max_buckets


def test_ledger_fold_crossing_the_pending_limit():
    keys = [(i * 7919) % 5000 for i in range(_PENDING_MAX + 10)]
    new, ref = NodeLoadLedger(), EagerLedger()
    for led in (new, ref):
        led.add("routed", 4999, 3)
        led.add_many("detour", keys[:5])
        led.add_many("routed", keys, [1 + i % 3 for i in range(len(keys))])
        led.add("terminated", 123456)
    assert len(new._keys_in) < _PENDING_MAX
    assert new.keys == ref.keys
    assert new.export_state() == ref.export_state()


def test_exact_list_keeps_non_finite_values_the_sketch_drops_them():
    h = Histogram("h")
    h.observe_many([1.0, math.nan, math.inf])
    h.observe(-math.inf)
    h.observe(2.0)
    assert len(h) == 5
    assert math.isnan(h.mean())
    assert h.sketch.count == 2
    assert h.sketch.total() == 3.0
    assert h.sketch.export_state() == {**QuantileSketch().export_state(), **{
        "pos": h.sketch.export_state()["pos"],
        "count": 2, "sum": 3.0, "sum_sq": 5.0, "min": 1.0, "max": 2.0,
    }}


def test_sketch_held_across_reset_keeps_what_came_before():
    h = Histogram("h")
    held = h.sketch
    h.observe(4.0)
    h.reset()
    h.observe(9.0)
    assert (held.count, held.total()) == (1, 4.0)
    assert (h.sketch.count, h.sketch.total()) == (1, 9.0)
