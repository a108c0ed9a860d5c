"""Span recorder for bench_e2e: layer boundaries traced from outside.

The program under test is not edited.  :func:`tracing` rebinds the names
``repro.core.bristle`` imported for its substrates to thin factories that
build the real object and then shadow its layer entry points with
instance attributes recording one span per call (none of these classes
use ``__slots__``); the harness wraps the public operations themselves
with :meth:`SpanRecorder.wrap`, so every span hangs under the public op
that caused it.  Every binding is restored on exit.

A span is ``(name, start_ns, end_ns, parent, op)``; ``parent`` is the
span that was open when it started (-1 for a public op) and ``op`` the
id of that public op's span, shared by everything it caused.  Spans live
in flat ``array`` columns until :meth:`SpanRecorder.write` dumps them.

Self time is duration minus the time covered by child spans.  The
wrapper's own cost before a child's clock starts and after it stops lands
in the *parent's* self time, so a layer that makes many tiny traced calls
(``route`` over ``owner_of``/``distance``) reads high in a traced run;
``trace.overhead_ratio`` says by how much overall.
"""

from __future__ import annotations

import contextlib
import json
import time
from array import array
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

__all__ = ["SpanRecorder", "tracing"]

#: ``(suffix, fn(args, kwargs, result) -> int)``: an exact count taken at
#: the same boundary as the span, e.g. the hops of a route.
Tally = Tuple[str, Callable[[tuple, dict, object], int]]


class SpanRecorder:
    """In-memory span store plus exact per-boundary counts."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name = array("l")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.tallies: Dict[str, int] = {}
        self._stack: List[int] = []

    def __len__(self) -> int:
        return len(self.start)

    def wrap(self, name: str, fn: Callable, tally: Optional[Tally] = None) -> Callable:
        """``fn`` recording one span called ``name`` per call."""
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        names, starts, ends = self.name, self.start, self.end
        parents, ops, stack = self.parent, self.op, self._stack
        tallies = self.tallies
        clock = time.perf_counter_ns
        if tally is not None:
            tally_key, tally_fn = f"{name}.{tally[0]}", tally[1]
            tallies.setdefault(tally_key, 0)

        def traced(*args, **kwargs):
            sid = len(starts)
            names.append(nid)
            if stack:
                parents.append(stack[-1])
                ops.append(stack[0])
            else:
                parents.append(-1)
                ops.append(sid)
            ends.append(0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if tally is not None:
                tallies[tally_key] += tally_fn(args, kwargs, result)
            return result

        return traced

    def wrap_methods(self, obj: object, layer: str, methods, tallies=None) -> None:
        """Shadow ``obj``'s ``methods`` with traced instance attributes."""
        for meth in methods:
            tally = (tallies or {}).get(meth)
            setattr(obj, meth, self.wrap(f"{layer}.{meth}", getattr(obj, meth), tally))

    # ------------------------------------------------------------------
    # Reduction
    # ------------------------------------------------------------------
    def columns(self) -> Dict[str, np.ndarray]:
        return {
            "name": np.asarray(self.name, dtype=np.int64),
            "start": np.asarray(self.start, dtype=np.int64),
            "end": np.asarray(self.end, dtype=np.int64),
            "parent": np.asarray(self.parent, dtype=np.int64),
            "op": np.asarray(self.op, dtype=np.int64),
        }

    def self_ns(self) -> np.ndarray:
        """Exclusive nanoseconds per span (single-threaded, so a span's
        children never overlap and their durations simply add up)."""
        c = self.columns()
        dur = c["end"] - c["start"]
        has_parent = c["parent"] >= 0
        covered = np.bincount(
            c["parent"][has_parent], weights=dur[has_parent], minlength=dur.size
        )
        return dur - covered.astype(np.int64)

    def by_name(self) -> Dict[str, Dict[str, float]]:
        """``name -> {calls, self_s}`` over every recorded span."""
        ids = np.asarray(self.name, dtype=np.int64)
        calls = np.bincount(ids, minlength=len(self.names))
        self_s = np.bincount(ids, weights=self.self_ns(), minlength=len(self.names))
        return {
            n: {"calls": int(calls[i]), "self_s": float(self_s[i]) / 1e9}
            for i, n in enumerate(self.names)
        }

    def write(self, path) -> None:
        """Dump the spans as columnar JSON (times relative to the first)."""
        t0 = self.start[0] if len(self) else 0

        def col(values) -> str:
            return "[" + ",".join(map(str, values)) + "]"

        with open(path, "w") as fh:
            fh.write('{"names": %s,\n' % json.dumps(self.names))
            fh.write('"name": %s,\n' % col(self.name))
            fh.write('"start_ns": %s,\n' % col(t - t0 for t in self.start))
            fh.write('"end_ns": %s,\n' % col(t - t0 for t in self.end))
            fh.write('"parent": %s,\n' % col(self.parent))
            fh.write('"op": %s,\n' % col(self.op))
            fh.write('"tallies": %s}\n' % json.dumps(self.tallies))


# Which entry points of each overlay kind are layer boundaries on this
# benchmark's fixed configuration (Chord = mobile layer, Pastry =
# stationary layer); Chord's ``owner_of`` is only ever called from inside
# its own ``route`` there, so it stays part of that span.
_OVERLAY_METHODS = {
    "chord": ("build", "route", "add_node", "remove_node", "neighbors_of"),
    "pastry": ("build", "route", "owner_of"),
}
_HOPS = ("hops", lambda args, kwargs, route: route.hop_count)


@contextlib.contextmanager
def tracing(rec: SpanRecorder) -> Iterator[None]:
    """Trace every network constructed inside the block."""
    from repro.core import bristle as facade

    def instrumented(factory, layer, methods, tallies=None):
        def make(*args, **kwargs):
            obj = factory(*args, **kwargs)
            rec.wrap_methods(obj, layer, methods, tallies)
            return obj

        return make

    def make_overlay(name, *args, **kwargs):
        overlay = facade_make_overlay(name, *args, **kwargs)
        kind = name.lower()
        rec.wrap_methods(
            overlay, f"overlay.{kind}", _OVERLAY_METHODS[kind], {"route": _HOPS}
        )
        return overlay

    build_forest = rec.wrap(
        "core.ldt_forest.build",
        facade.build_ldt_forest,
        ("members", lambda args, kwargs, forest: forest.num_members),
    )

    def build_ldt_forest(specs):
        forest = build_forest(specs)
        forest.tree = rec.wrap("core.ldt_forest.tree", forest.tree)
        return forest

    facade_make_overlay = facade.make_overlay
    replacements = {
        "generate_transit_stub": rec.wrap(
            "net.transit_stub.generate", facade.generate_transit_stub
        ),
        "PathOracle": instrumented(
            facade.PathOracle, "net.shortest_path", ("prewarm", "distance")
        ),
        "Placement": instrumented(
            facade.Placement, "net.placement", ("attach", "move", "move_group", "detach")
        ),
        "make_naming": instrumented(facade.make_naming, "core.naming", ("assign",)),
        "make_overlay": make_overlay,
        "LocationDirectory": instrumented(
            facade.LocationDirectory,
            "core.location",
            ("publish", "publish_many", "resolve_at", "resolve", "withdraw",
             "expire_leases"),
            {"expire_leases": ("records", lambda args, kwargs, expired: len(expired))},
        ),
        "RegistrationManager": instrumented(
            facade.RegistrationManager, "core.location", ("register", "unregister")
        ),
        "build_ldt": rec.wrap(
            "core.ldt.build_ldt",
            facade.build_ldt,
            ("members", lambda args, kwargs, tree: len(args[1])),
        ),
        "build_ldt_forest": build_ldt_forest,
    }
    originals = {name: getattr(facade, name) for name in replacements}
    for name, value in replacements.items():
        setattr(facade, name, value)
    try:
        yield
    finally:
        for name, value in originals.items():
            setattr(facade, name, value)
