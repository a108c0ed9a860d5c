"""The rule catalogue: eight repo-specific determinism/invariant checks.

Each rule is a small :class:`ast`-walking check with a stable ``BRS``
code.  The catalogue (with the paper-level rationale for every rule)
lives in docs/static-analysis.md; in brief:

========  ==========================================================
BRS001    no unseeded randomness (stdlib ``random``, legacy
          ``np.random.*``) — all draws flow through ``repro.sim.rng``
BRS002    no wall-clock reads inside virtual-time code
          (``repro.core|overlay|experiments``)
BRS003    telemetry spans: ``span_begin`` paired with ``span_end``
          and gated on ``tracer.enabled``
BRS004    fork-safety: ``sweep_map`` worker functions must not mutate
          process-global caches
BRS005    RNG populations must be order-stable (no sets / raw dict
          views fed to draw helpers)
BRS006    seed discipline: derive child seeds via
          ``derive_seed``/``derive_point_seed``, never arithmetic
BRS008    no unbounded per-sample lists in metric recording methods
BRS009    columnar kernel modules stay vectorised: no per-row Python
          ``for`` loops over membership arrays
========  ==========================================================
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set

from .engine import FileContext, Violation

__all__ = ["Rule", "RULES"]


class Rule:
    """Base: one code, one name, one ``check`` generator."""

    code: str = ""
    name: str = ""
    summary: str = ""
    #: Per-file rules see one :class:`FileContext`; the whole-program
    #: rules (scope ``"project"``) live in :mod:`repro.lint.wholeprogram`.
    scope: str = "file"

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
    """BRS002: no host-clock reads inside the virtual-time packages
    (``repro.core`` / ``repro.overlay`` / ``repro.experiments``)."""

    code = "BRS002"
    name = "wall-clock-in-virtual-time"
    summary = (
        "core/overlay/experiments code must use virtual time (net.now / "
        "engine.now), not the host clock"
    )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        """Flag ``time.*``/``datetime.*`` clock reads in scoped packages."""
        if not ctx.in_packages("core", "overlay", "experiments"):
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
                        f"wall-clock read time.{func.id}() in virtual-time "
                        "code: use the simulation clock",
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
                    f"wall-clock read {dotted}() in virtual-time code: use "
                    "the simulation clock",
                )
            elif parts[-1] in _DATETIME_FUNCS and (
                parts[0] in imports.datetime_modules
                or parts[0] in imports.datetime_classes
            ):
                yield self.violation(
                    ctx,
                    node,
                    f"wall-clock read {dotted}() in virtual-time code: use "
                    "the simulation clock",
                )


# ----------------------------------------------------------------------
# BRS003 — telemetry span pairing and gating
# ----------------------------------------------------------------------
def _contains_span_begin(node: ast.AST) -> bool:
    return any(
        isinstance(c, ast.Call)
        and isinstance(c.func, ast.Attribute)
        and c.func.attr == "span_begin"
        for c in ast.walk(node)
    )


def _span_id_escapes(fn: ast.AST, span_vars: Set[str]) -> bool:
    """True when a span-id variable is returned or handed to another call
    (the ``_record_route_telemetry(net, trace, span_id)`` pattern) —
    closing the span became that callee's responsibility."""
    if not span_vars:
        return False
    for child in ast.walk(fn):
        if isinstance(child, ast.Return) and child.value is not None:
            if any(
                isinstance(n, ast.Name) and n.id in span_vars
                for n in ast.walk(child.value)
            ):
                return True
        if isinstance(child, ast.Call):
            callee = (
                child.func.attr
                if isinstance(child.func, ast.Attribute)
                else getattr(child.func, "id", None)
            )
            if callee in ("span_begin", "span_end"):
                continue
            for arg in list(child.args) + [kw.value for kw in child.keywords]:
                if isinstance(arg, ast.Name) and arg.id in span_vars:
                    return True
    return False


class SpanDiscipline(Rule):
    """BRS003: every ``span_begin`` pairs with a ``span_end`` (or hands
    its span id off) and is gated on ``tracer.enabled``."""

    code = "BRS003"
    name = "span-discipline"
    summary = (
        "raw span_begin must be paired with span_end in the same function "
        "and gated on tracer.enabled"
    )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        """Flag unpaired or ungated ``span_begin`` calls per function."""
        # The convention binds library code; the tracer's implementation
        # and its direct unit tests exercise the raw primitives on purpose.
        if not ctx.module or ctx.module[0] != "repro":
            return
        if ctx.is_module("repro", "sim", "trace"):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            begins: List[ast.Call] = []
            gated = False
            span_vars: Set[str] = set()
            for child in _walk_function_body(node):
                if isinstance(child, ast.Call) and isinstance(
                    child.func, ast.Attribute
                ):
                    if child.func.attr == "span_begin":
                        begins.append(child)
                if isinstance(child, ast.Attribute) and child.attr in (
                    "enabled",
                    "tracing",
                ):
                    gated = True
                if isinstance(child, ast.Assign) and _contains_span_begin(
                    child.value
                ):
                    for tgt in child.targets:
                        if isinstance(tgt, ast.Name):
                            span_vars.add(tgt.id)
            if not begins:
                continue
            # span_end may live in a nested completion callback (async
            # spans), so the full subtree counts as "same function" here.
            ends = sum(
                1
                for child in ast.walk(node)
                if isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr == "span_end"
            )
            if ends == 0 and not _span_id_escapes(node, span_vars):
                yield self.violation(
                    ctx,
                    begins[0],
                    f"span_begin in {node.name}() has no matching span_end "
                    "in the same function (span leaks open)",
                )
            if not gated:
                yield self.violation(
                    ctx,
                    begins[0],
                    f"span_begin in {node.name}() is not gated on "
                    "tracer.enabled/telemetry.tracing (PR-2 convention: "
                    "expensive accounting only when tracing)",
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
    process-global caches (fork gives workers copy-on-write snapshots)."""

    code = "BRS004"
    name = "fork-unsafe-worker"
    summary = (
        "sweep_map workers must not mutate process-global caches; fork "
        "gives them a copy-on-write snapshot (prewarm in the parent)"
    )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        """Flag global-state mutation inside ``sweep_map`` worker bodies."""
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
        if not worker_names:
            return
        functions: Dict[str, ast.FunctionDef] = {
            n.name: n
            for n in ctx.tree.body
            if isinstance(n, ast.FunctionDef)
        }
        for name in sorted(worker_names):
            fn = functions.get(name)
            if fn is None:
                continue
            for child in _walk_function_body(fn):
                if isinstance(child, ast.Global):
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


# ----------------------------------------------------------------------
# BRS005 — unordered populations feeding seeded draws
# ----------------------------------------------------------------------
#: Draw helpers whose *population argument* ordering determines which
#: element a given seeded draw lands on.
_DRAW_METHODS = {"choice", "sample", "shuffled", "shuffle", "permutation"}
_DICT_VIEWS = {"keys", "values", "items"}


class UnorderedDrawPopulation(Rule):
    """BRS005: populations handed to RNG draw helpers must have a
    deterministic iteration order (no sets / raw dict views)."""

    code = "BRS005"
    name = "unordered-draw-population"
    summary = (
        "sets / raw dict views fed to RNG draw helpers make seeded draws "
        "order-dependent: wrap the population in sorted(...)"
    )

    def _unordered_reason(self, arg: ast.AST) -> Optional[str]:
        """Why ``arg`` is an unordered population, or ``None`` if it isn't."""
        if isinstance(arg, (ast.Set, ast.SetComp)):
            return "a set expression"
        if isinstance(arg, ast.Call):
            if isinstance(arg.func, ast.Name) and arg.func.id in (
                "set",
                "frozenset",
            ):
                return f"a {arg.func.id}(...) value"
            if (
                isinstance(arg.func, ast.Attribute)
                and arg.func.attr in _DICT_VIEWS
            ):
                return f"a raw .{arg.func.attr}() view"
        return None

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        """Flag unordered populations in draw-helper arguments."""
        for node in ast.walk(ctx.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _DRAW_METHODS
            ):
                continue
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                reason = self._unordered_reason(arg)
                if reason is not None:
                    yield self.violation(
                        ctx,
                        arg,
                        f"{reason} is passed to .{node.func.attr}(): "
                        "iteration order is not deterministic input — "
                        "sort the population first",
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
#: reference for the O(1)-memory quantile sketch).
_SAMPLE_LIST_ALLOWED_MODULES = (("repro", "sim", "metrics"),)


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
    bounded ``deque(maxlen=...)``); the exact-oracle ``Histogram`` path in
    ``repro.sim.metrics`` is the single allow-listed exception."""

    code = "BRS008"
    name = "unbounded-sample-list"
    summary = (
        "per-sample list.append/extend inside observe/record methods grows "
        "without bound: use QuantileSketch or a bounded deque "
        "(repro/sim/metrics.py exact oracle only)"
    )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        """Flag ``self.<list-attr>.append/extend`` in recording methods."""
        if any(ctx.is_module(*m) for m in _SAMPLE_LIST_ALLOWED_MODULES):
            return
        for cls in ast.walk(ctx.tree):
            if not isinstance(cls, ast.ClassDef):
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
_COLUMNAR_KERNEL_MODULES = (
    ("repro", "sim", "columnar"),
    ("repro", "core", "ldt_forest"),
)

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


#: Registry: code → rule instance, in code order.
RULES: Dict[str, Rule] = {
    rule.code: rule
    for rule in (
        UnseededRandomness(),
        WallClockInVirtualTime(),
        SpanDiscipline(),
        ForkUnsafeWorker(),
        UnorderedDrawPopulation(),
        SeedArithmetic(),
        UnboundedSampleList(),
        PerRowColumnarLoop(),
    )
}
