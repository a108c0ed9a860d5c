"""The rule catalogue: per-file determinism checks.

Each rule is a small :class:`ast`-walking check with a stable ``BRS``
code that sees one file at a time.  The catalogue (with the paper-level
rationale for every rule, and the tests that replaced the retired ones)
lives in docs/static-analysis.md; in brief:

========  ==========================================================
BRS001    no unseeded randomness (stdlib ``random``, legacy
          ``np.random.*``) — all draws flow through ``repro.sim.rng``
BRS002    no wall-clock reads anywhere in ``repro`` outside
          ``repro.sim.trace`` / ``repro.sim.profile``
BRS004    fork-safety: ``sweep_map`` worker functions must not mutate
          process-global caches
BRS006    seed discipline: derive child seeds via
          ``derive_seed``/``derive_point_seed``, never arithmetic
BRS008    no unbounded per-sample lists in metric recording methods
BRS009    columnar kernel modules stay vectorised: no per-row Python
          ``for`` loops over membership arrays
BRS010    RNG-stream provenance: every stream-name literal is
          registered in ``repro.sim.rng.STREAMS`` and drawn only by
          its owning (or declared sharing) subsystem
========  ==========================================================
"""

from __future__ import annotations

import ast
import fnmatch
from typing import Dict, Iterator, List, Mapping, Optional, Set, Tuple

from ..sim import rng as _rng
from .engine import FileContext, Violation

__all__ = ["Rule", "RULES", "match_stream", "stream_uses"]


class Rule:
    """Base: one code, one name, one ``check`` generator."""

    code: str = ""
    name: str = ""
    summary: str = ""

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        """Yield every violation of this rule in ``ctx``'s tree."""
        raise NotImplementedError

    def violation(
        self, ctx: FileContext, node: ast.AST, message: str
    ) -> Violation:
        """Build a :class:`Violation` anchored at ``node``."""
        return Violation(
            rule=self.code,
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


# ----------------------------------------------------------------------
# Shared AST helpers
# ----------------------------------------------------------------------
def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for an Attribute chain rooted at a Name, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _walk_function_body(fn: ast.AST) -> Iterator[ast.AST]:
    """Walk a function's body without descending into nested functions."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


class _ImportTable:
    """What the file binds its randomness/clock modules to."""

    def __init__(self, tree: ast.Module) -> None:
        self.random_modules: Set[str] = set()  # import random [as r]
        self.random_functions: Set[str] = set()  # from random import shuffle
        self.numpy_modules: Set[str] = set()  # import numpy [as np]
        self.np_random_modules: Set[str] = set()  # from numpy import random
        #: bound name → original: from numpy.random import default_rng [as x]
        self.np_random_functions: Dict[str, str] = {}
        self.time_modules: Set[str] = set()
        self.time_functions: Set[str] = set()  # from time import time, ...
        self.datetime_modules: Set[str] = set()
        self.datetime_classes: Set[str] = set()  # from datetime import datetime
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if alias.name == "random":
                        self.random_modules.add(bound)
                    elif alias.name == "numpy":
                        self.numpy_modules.add(bound)
                    elif alias.name == "numpy.random":
                        # ``import numpy.random`` binds ``numpy``.
                        self.numpy_modules.add(bound)
                    elif alias.name == "time":
                        self.time_modules.add(bound)
                    elif alias.name == "datetime":
                        self.datetime_modules.add(bound)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                for alias in node.names:
                    bound = alias.asname or alias.name
                    if node.module == "random":
                        self.random_functions.add(bound)
                    elif node.module == "numpy" and alias.name == "random":
                        self.np_random_modules.add(bound)
                    elif node.module == "numpy.random":
                        self.np_random_functions[bound] = alias.name
                    elif node.module == "time":
                        self.time_functions.add(bound)
                    elif node.module == "datetime" and alias.name in (
                        "datetime",
                        "date",
                    ):
                        self.datetime_classes.add(bound)


# ----------------------------------------------------------------------
# BRS001 — unseeded randomness
# ----------------------------------------------------------------------
#: Legacy ``numpy.random`` module-level API (global, implicitly seeded).
_NP_LEGACY = {
    "seed",
    "rand",
    "randn",
    "randint",
    "random",
    "random_sample",
    "ranf",
    "sample",
    "choice",
    "shuffle",
    "permutation",
    "uniform",
    "normal",
    "standard_normal",
    "exponential",
    "poisson",
    "binomial",
}


class UnseededRandomness(Rule):
    """BRS001: stdlib ``random`` / legacy ``np.random`` calls are banned —
    every draw flows through the named, seeded ``RngStreams``."""

    code = "BRS001"
    name = "unseeded-randomness"
    summary = (
        "stdlib random / legacy np.random draws bypass the shared seeded "
        "streams in repro.sim.rng"
    )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        """Flag stdlib/legacy-numpy draws and seedless ``default_rng()``."""
        imports = _ImportTable(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id in imports.random_functions:
                yield self.violation(
                    ctx,
                    node,
                    f"call to stdlib random.{func.id}: draw through a named "
                    "RngStreams stream instead",
                )
                continue
            if isinstance(func, ast.Name) and func.id in imports.np_random_functions:
                original = imports.np_random_functions[func.id]
                if original in _NP_LEGACY:
                    yield self.violation(
                        ctx,
                        node,
                        f"legacy numpy.random.{original} uses hidden global "
                        "state: use RngStreams (PCG64 Generator) streams",
                    )
                elif original == "default_rng" and not (node.args or node.keywords):
                    yield self.violation(
                        ctx,
                        node,
                        "default_rng() without a seed is nondeterministic: "
                        "derive the seed via repro.sim.rng.derive_seed",
                    )
                continue
            dotted = dotted_name(func)
            if dotted is None:
                continue
            parts = dotted.split(".")
            if parts[0] in imports.random_modules and len(parts) == 2:
                yield self.violation(
                    ctx,
                    node,
                    f"call to stdlib {dotted}: draw through a named "
                    "RngStreams stream instead",
                )
            elif (
                len(parts) == 3
                and parts[0] in imports.numpy_modules
                and parts[1] == "random"
            ) or (len(parts) == 2 and parts[0] in imports.np_random_modules):
                attr = parts[-1]
                if attr in _NP_LEGACY:
                    yield self.violation(
                        ctx,
                        node,
                        f"legacy numpy.random.{attr} uses hidden global "
                        "state: use RngStreams (PCG64 Generator) streams",
                    )
                elif attr == "default_rng" and not (node.args or node.keywords):
                    yield self.violation(
                        ctx,
                        node,
                        "default_rng() without a seed is nondeterministic: "
                        "derive the seed via repro.sim.rng.derive_seed",
                    )


# ----------------------------------------------------------------------
# BRS002 — wall-clock reads in virtual-time code
# ----------------------------------------------------------------------
#: Modules whose whole point is wall-clock measurement.
_WALLCLOCK_ALLOWED_MODULES = (
    ("repro", "sim", "profile"),
    ("repro", "sim", "trace"),
)

_TIME_FUNCS = {"time", "monotonic", "perf_counter", "process_time", "time_ns"}
_DATETIME_FUNCS = {"now", "utcnow", "today"}


class WallClockInVirtualTime(Rule):
    """BRS002: no host-clock reads anywhere in ``repro`` except the two
    wall-clock modules — so no call chain can reach the clock from
    simulation code, however many modules it crosses."""

    code = "BRS002"
    name = "wall-clock-in-virtual-time"
    summary = (
        "repro code must use virtual time (net.now), not the "
        "host clock; only repro.sim.trace and repro.sim.profile read it"
    )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        """Flag ``time.*``/``datetime.*`` clock reads in ``repro`` modules."""
        if not ctx.in_repro():
            return
        if any(ctx.is_module(*m) for m in _WALLCLOCK_ALLOWED_MODULES):
            return
        imports = _ImportTable(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id in imports.time_functions:
                if func.id in _TIME_FUNCS:
                    yield self.violation(
                        ctx,
                        node,
                        f"wall-clock read time.{func.id}() outside the "
                        "wall-clock modules: use the simulation clock",
                    )
                continue
            dotted = dotted_name(func)
            if dotted is None:
                continue
            parts = dotted.split(".")
            if (
                len(parts) == 2
                and parts[0] in imports.time_modules
                and parts[1] in _TIME_FUNCS
            ):
                yield self.violation(
                    ctx,
                    node,
                    f"wall-clock read {dotted}() outside the wall-clock "
                    "modules: use the simulation clock",
                )
            elif parts[-1] in _DATETIME_FUNCS and (
                parts[0] in imports.datetime_modules
                or parts[0] in imports.datetime_classes
            ):
                yield self.violation(
                    ctx,
                    node,
                    f"wall-clock read {dotted}() outside the wall-clock "
                    "modules: use the simulation clock",
                )


# ----------------------------------------------------------------------
# BRS004 — fork-safety of sweep workers
# ----------------------------------------------------------------------
#: Mutating attribute calls on shared caches that a forked worker's
#: copy-on-write memory silently swallows (or that skew jobs-invariant
#: cache accounting).
_WORKER_MUTATORS = {"clear", "prewarm", "prewarm_oracle"}


class ForkUnsafeWorker(Rule):
    """BRS004: functions dispatched through ``sweep_map`` must not mutate
    process-global caches (fork gives workers copy-on-write snapshots).

    A worker can reach a ``global`` rebinding through any number of calls
    into other modules, which no per-file check can follow; so in
    ``repro`` every ``global`` statement is flagged wherever it is, and
    elsewhere (benchmarks, scripts) the ones in worker bodies."""

    code = "BRS004"
    name = "fork-unsafe-worker"
    summary = (
        "sweep_map workers must not mutate process-global caches, and repro "
        "code has no `global` rebinding a worker could reach; fork gives "
        "workers a copy-on-write snapshot (prewarm in the parent)"
    )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        """Flag global-state mutation inside ``sweep_map`` worker bodies,
        and every ``global`` statement in ``repro``."""
        worker_names: Set[str] = set()
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Call)
                and node.args
                and isinstance(node.args[0], ast.Name)
            ):
                callee = dotted_name(node.func)
                if callee is not None and callee.split(".")[-1] == "sweep_map":
                    worker_names.add(node.args[0].id)
        functions: Dict[str, ast.FunctionDef] = {
            n.name: n
            for n in ctx.tree.body
            if isinstance(n, ast.FunctionDef)
        }
        in_workers: Set[int] = set()
        for name in sorted(worker_names & set(functions)):
            for child in _walk_function_body(functions[name]):
                if isinstance(child, ast.Global):
                    in_workers.add(id(child))
                    yield self.violation(
                        ctx,
                        child,
                        f"worker {name}() mutates module globals "
                        f"({', '.join(child.names)}): lost on fork, racy "
                        "in-process",
                    )
                elif (
                    isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Attribute)
                    and child.func.attr in _WORKER_MUTATORS
                ):
                    yield self.violation(
                        ctx,
                        child,
                        f"worker {name}() calls .{child.func.attr}() — "
                        "mutate shared caches in the parent before the "
                        "fork, not per worker",
                    )
        if not ctx.in_repro():
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Global) and id(node) not in in_workers:
                yield self.violation(
                    ctx,
                    node,
                    f"`global {', '.join(node.names)}` rebinds process-global "
                    "state a sweep_map worker may reach: the write is lost "
                    "on fork — build module state eagerly or pass it in",
                )


# ----------------------------------------------------------------------
# BRS006 — seed arithmetic
# ----------------------------------------------------------------------
#: Modules that implement the blessed derivation (splitmix64 mixing).
_SEED_ALLOWED_MODULES = (
    ("repro", "sim", "rng"),
    ("repro", "experiments", "parallel"),
)

_ARITH_OPS = (ast.Add, ast.Sub, ast.Mult, ast.Mod, ast.FloorDiv)


def _mentions_seed(node: ast.AST) -> bool:
    if isinstance(node, ast.Name):
        return "seed" in node.id.lower()
    if isinstance(node, ast.Attribute):
        return "seed" in node.attr.lower()
    if isinstance(node, ast.BinOp):
        return _mentions_seed(node.left) or _mentions_seed(node.right)
    if isinstance(node, ast.Call):
        # ``int(seed)``-style coercions keep the taint.
        return any(_mentions_seed(a) for a in node.args)
    return False


def _is_string_expr(node: ast.AST) -> bool:
    """Heuristic for text building (``"seed serial (" + SEED_REV``):
    string constants and f-strings are labels, not seed values."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return True
    if isinstance(node, ast.JoinedStr):
        return True
    if isinstance(node, ast.BinOp):
        return _is_string_expr(node.left) or _is_string_expr(node.right)
    return False


class SeedArithmetic(Rule):
    """BRS006: child seeds come from ``derive_seed``/``derive_point_seed``
    (splitmix64 mixing), never from raw arithmetic on a seed."""

    code = "BRS006"
    name = "seed-arithmetic"
    summary = (
        "raw seed+i / seed*k derivations collide across overlapping "
        "sweeps: use derive_seed / derive_point_seed (splitmix64 mixing)"
    )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        """Flag the outermost arithmetic expression over a seed value."""
        if any(ctx.is_module(*m) for m in _SEED_ALLOWED_MODULES):
            return
        # Recurse manually so only the outermost offending expression is
        # reported (not every sub-BinOp of it).
        def visit(node: ast.AST) -> Iterator[Violation]:
            if (
                isinstance(node, ast.BinOp)
                and isinstance(node.op, _ARITH_OPS)
                and not _is_string_expr(node)
                and (_mentions_seed(node.left) or _mentions_seed(node.right))
            ):
                yield self.violation(
                    ctx,
                    node,
                    "arithmetic on a seed value: child seeds from adjacent "
                    "integers correlate and collide — derive them with "
                    "derive_seed / derive_point_seed",
                )
                return
            for child in ast.iter_child_nodes(node):
                yield from visit(child)

        yield from visit(ctx.tree)


# ----------------------------------------------------------------------
# BRS008 — unbounded per-sample accumulation in a metric class
# ----------------------------------------------------------------------
#: Method names that record one observation per event; a list growing
#: inside one of these grows with the event count, not the node count.
_RECORD_METHODS = {"observe", "observe_many", "record", "add_sample", "sample"}

#: The one allow-listed accumulator: ``Histogram``'s exact-percentile
#: oracle in :mod:`repro.sim.metrics` (kept deliberately, as the parity
#: reference for the O(1)-memory quantile sketch), as (module, class).
_SAMPLE_LIST_ALLOWED = (("repro", "sim", "metrics"), "Histogram")


def _empty_list_attrs(cls: ast.ClassDef) -> Set[str]:
    """Attribute names bound to ``[]`` / ``list()`` in ``__init__``."""
    attrs: Set[str] = set()
    for fn in cls.body:
        if not (
            isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            and fn.name == "__init__"
        ):
            continue
        for node in _walk_function_body(fn):
            if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                continue
            value = node.value
            is_empty_list = (
                isinstance(value, ast.List) and not value.elts
            ) or (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id == "list"
                and not value.args
                and not value.keywords
            )
            if not is_empty_list:
                continue
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    attrs.add(target.attr)
    return attrs


class UnboundedSampleList(Rule):
    """BRS008: metric-style classes must not grow a per-sample list inside
    their recording methods — memory then scales with the event count.
    Use the fixed-memory :class:`repro.sim.metrics.QuantileSketch` (or a
    bounded ``deque(maxlen=...)``); the exact-oracle ``Histogram`` class in
    ``repro.sim.metrics`` is the single allow-listed exception."""

    code = "BRS008"
    name = "unbounded-sample-list"
    summary = (
        "per-sample list.append/extend inside observe/record methods grows "
        "without bound: use QuantileSketch or a bounded deque "
        "(Histogram's exact oracle in repro/sim/metrics.py only)"
    )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        """Flag ``self.<list-attr>.append/extend`` in recording methods."""
        module, allowed = _SAMPLE_LIST_ALLOWED
        in_module = ctx.is_module(*module)
        for cls in ast.walk(ctx.tree):
            if not isinstance(cls, ast.ClassDef) or (in_module and cls.name == allowed):
                continue
            list_attrs = _empty_list_attrs(cls)
            if not list_attrs:
                continue
            for fn in cls.body:
                if not (
                    isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and fn.name in _RECORD_METHODS
                ):
                    continue
                for node in _walk_function_body(fn):
                    if not (
                        isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr in ("append", "extend")
                    ):
                        continue
                    target = node.func.value
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                        and target.attr in list_attrs
                    ):
                        yield self.violation(
                            ctx,
                            node,
                            f"{cls.name}.{fn.name}() grows self."
                            f"{target.attr} per sample: unbounded memory — "
                            "use QuantileSketch / a bounded deque(maxlen=...)",
                        )


# ----------------------------------------------------------------------
# BRS009 — per-row Python loops inside columnar kernel modules
# ----------------------------------------------------------------------
#: Modules that hold the struct-of-arrays kernels; per-row loops there
#: defeat the engine's whole point.
_COLUMNAR_KERNEL_MODULES = (("repro", "core", "ldt_forest"),)

#: Iterable-name fragments that mean "one element per member": looping
#: such an array in Python scales the interpreter cost with N.
_MEMBERSHIP_NAME_TOKENS = ("keys", "holders", "members")


def _per_row_iter_reason(it: ast.AST) -> Optional[str]:
    """Why iterating ``it`` is a per-row walk, or ``None`` when it isn't.

    Flags ``range(len(...))`` index walks, ``.tolist()``
    materialisations, and direct iteration over membership-named
    arrays (``keys``, ``holders``, ``members``).
    """
    if (
        isinstance(it, ast.Call)
        and isinstance(it.func, ast.Name)
        and it.func.id == "range"
        and any(
            isinstance(a, ast.Call)
            and isinstance(a.func, ast.Name)
            and a.func.id == "len"
            for a in it.args
        )
    ):
        return "a range(len(...)) index walk"
    if (
        isinstance(it, ast.Call)
        and isinstance(it.func, ast.Attribute)
        and it.func.attr == "tolist"
    ):
        return "a .tolist() materialisation"
    name = None
    if isinstance(it, ast.Name):
        name = it.id
    elif isinstance(it, ast.Attribute):
        name = it.attr
    if name is not None and any(
        tok in name.lower() for tok in _MEMBERSHIP_NAME_TOKENS
    ):
        return f"iteration over membership array {name!r}"
    return None


class PerRowColumnarLoop(Rule):
    """BRS009: columnar kernel modules must stay vectorised.  A Python
    ``for`` statement walking a membership-scale array — a
    ``range(len(...))`` index walk, a ``.tolist()`` materialisation, or
    direct iteration over a ``*keys``/``*holders``/``*members`` iterable
    — reintroduces the O(N)-interpreter-ops-per-event cost the
    struct-of-arrays engine exists to remove.  Canonical row exports
    (object-model parity bridges) carry explicit suppressions."""

    code = "BRS009"
    name = "per-row-columnar-loop"
    summary = (
        "per-row Python for-loop over a membership array inside a "
        "columnar kernel module: express it as a numpy kernel "
        "(searchsorted / boolean masks / reductions) instead"
    )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        """Flag per-row ``for`` statements in columnar kernel modules."""
        if not any(ctx.is_module(*m) for m in _COLUMNAR_KERNEL_MODULES):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.For, ast.AsyncFor)):
                continue
            reason = _per_row_iter_reason(node.iter)
            if reason is not None:
                yield self.violation(
                    ctx,
                    node,
                    f"{reason} in a columnar kernel module runs O(N) "
                    "interpreter ops per event: vectorise it "
                    "(searchsorted / boolean masks / reductions)",
                )


# ----------------------------------------------------------------------
# BRS010 — RNG-stream provenance
# ----------------------------------------------------------------------
#: Calls that take a stream name, and the position of that argument:
#: the ``RngStreams`` methods, plus the ``KeySpace`` key draws
#: (``random_keys(rng, stream, n)`` and ``random_keys_in_range``).
_STREAM_ARG = {
    **dict.fromkeys(
        ("stream", "fresh", "spawn", "randint", "random", "choice", "sample", "shuffled"),
        0,
    ),
    "random_keys": 1,
    "random_keys_in_range": 1,
}


def _is_stream_param(name: str) -> bool:
    return name == "stream" or name.endswith("_stream")


def _stream_literal(node: ast.AST) -> Optional[str]:
    """The stream name ``node`` spells: a string constant verbatim, or
    ``"head*"`` for an f-string / ``+`` concatenation with a constant
    head (the dynamic tail matches a ``prefix.*`` registry entry)."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        head = ""
        for part in node.values:
            if not (isinstance(part, ast.Constant) and isinstance(part.value, str)):
                return head + "*"
            head += part.value
        return head
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        left = _stream_literal(node.left)
        return None if left is None else left.rstrip("*") + "*"
    return None


def stream_uses(tree: ast.AST) -> Iterator[Tuple[str, ast.AST]]:
    """Every ``(stream name, node)`` a module spells out: a name argument
    of a :data:`_STREAM_ARG` call, a ``stream=`` / ``*_stream=`` keyword,
    or the literal default of a ``stream`` / ``*_stream`` parameter."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            attr = func.attr if isinstance(func, ast.Attribute) else None
            pos = _STREAM_ARG.get(attr or "")
            args = [node.args[pos]] if pos is not None and len(node.args) > pos else []
            args += [kw.value for kw in node.keywords if kw.arg and _is_stream_param(kw.arg)]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            positional = a.args[len(a.args) - len(a.defaults):]
            args = [d for p, d in zip(positional, a.defaults) if _is_stream_param(p.arg)]
            args += [
                d for p, d in zip(a.kwonlyargs, a.kw_defaults)
                if d is not None and _is_stream_param(p.arg)
            ]
        else:
            continue
        for arg in args:
            name = _stream_literal(arg)
            if name is not None:
                yield name, arg


def match_stream(name: str, entries: Mapping[str, object]) -> Optional[str]:
    """The registry key covering ``name`` — exact first, then the most
    specific ``prefix.*`` wildcard.  ``name`` may itself be a pattern
    (``churn.*``), which a wildcard covers when its prefix is a prefix."""
    if name in entries:
        return name
    best: Optional[str] = None
    for key in entries:
        if key.endswith("*") and (
            fnmatch.fnmatchcase(name, key)
            or (name.endswith("*") and name[:-1].startswith(key[:-1]))
        ):
            if best is None or len(key) > len(best):
                best = key
    return best


class StreamProvenance(Rule):
    """BRS010: every stream-name literal in ``repro`` is registered in
    ``repro.sim.rng.STREAMS``, and is drawn only from its owning
    subsystem or one the entry lists as ``shared`` — one stream advanced
    by two unrelated subsystems silently correlates their draws.  That
    every entry still has a draw site is checked by
    ``tests/test_rng.py::TestStreamRegistry``."""

    code = "BRS010"
    name = "rng-stream-provenance"
    summary = (
        "stream names must be registered in repro.sim.rng.STREAMS and drawn "
        "only by the owning subsystem (or one registered as shared)"
    )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        """Check every stream name this module spells against ``STREAMS``."""
        if not ctx.in_repro() or ctx.is_module("repro", "sim", "rng"):
            return
        subsystem = ".".join(ctx.module[:2])
        for name, node in stream_uses(ctx.tree):
            key = match_stream(name, _rng.STREAMS)
            if key is None:
                yield self.violation(
                    ctx,
                    node,
                    f"RNG stream {name!r} is not registered in "
                    "repro.sim.rng.STREAMS — register it with its owning "
                    "subsystem",
                )
                continue
            spec = _rng.STREAMS[key]
            allowed = {spec.owner, *spec.shared}
            if subsystem not in allowed:
                yield self.violation(
                    ctx,
                    node,
                    f"RNG stream {name!r} is owned by "
                    f"{', '.join(sorted(allowed))} but drawn from {subsystem}: "
                    "a cross-subsystem draw correlates seeded streams — "
                    "register the subsystem in shared=(...) with a reason, "
                    "or use a new stream name",
                )


#: Registry: code → rule instance, in code order.
RULES: Dict[str, Rule] = {
    rule.code: rule
    for rule in (
        UnseededRandomness(),
        WallClockInVirtualTime(),
        ForkUnsafeWorker(),
        SeedArithmetic(),
        UnboundedSampleList(),
        PerRowColumnarLoop(),
        StreamProvenance(),
    )
}
