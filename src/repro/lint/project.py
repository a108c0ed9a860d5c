"""Whole-program project model for lint v2.

One pass of :func:`extract_facts` over each file distils the AST into a
JSON-serialisable :class:`ModuleFacts` record: the module's import
bindings, every function with its outgoing calls, wall-clock reads and
``global`` declarations, RNG-stream and metric-name literals, attribute
stores (for columnar-ownership checks), and the literal contents of the
in-source registries (``STREAMS``, ``METRIC_NAMES``, ``OWNED_COLUMNS``).

:class:`Project` then stitches the facts of every ``repro.*`` module into
a symbol table, an import graph, and a name-resolution-based call graph.
Method dispatch is approximated by attribute name: ``x.foo()`` links to
every project function *named* ``foo`` unless the receiver resolves
statically (``self.foo()``, an imported module, or a local binding).
That approximation is deliberately conservative-for-recall — see
"known false-negative classes" in docs/static-analysis.md — and is what
makes the interprocedural rules (BRS010–BRS013) whole-program rather
than per-file.

Because the facts are plain JSON, they cache per file keyed by content
hash (:mod:`repro.lint.cache`): a warm run re-parses nothing and only
re-runs the cheap graph passes.
"""

from __future__ import annotations

import ast
import dataclasses
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

__all__ = [
    "CallFact",
    "SinkFact",
    "FunctionFact",
    "StreamUse",
    "MetricUse",
    "AttrStore",
    "ModuleFacts",
    "Project",
    "extract_facts",
    "MODULE_FUNCTION",
    "FACTS_VERSION",
]

#: Bumped whenever the shape of the extracted facts changes, so stale
#: cache entries re-extract instead of deserialising garbage.
FACTS_VERSION = 1

#: Pseudo-function holding a module's top-level statements.
MODULE_FUNCTION = "<module>"

#: ``RngStreams`` methods whose first argument is a stream name.
RNG_NAME_METHODS = {
    "stream",
    "fresh",
    "spawn",
    "randint",
    "random",
    "choice",
    "sample",
    "shuffled",
}

#: Metric-registry factory methods whose first argument is a metric name.
METRIC_FACTORIES = {"counter", "histogram", "series"}

#: Methods on a metric object that *record* (emit) data.
METRIC_MUTATORS = {"inc", "set", "reset", "observe", "observe_many", "add", "append", "record"}

#: Wall-clock reading callables, as ``module.attr`` patterns.
_TIME_FUNCS = {"time", "monotonic", "perf_counter", "process_time", "time_ns"}
_DATETIME_FUNCS = {"now", "utcnow", "today"}

#: Attribute names never used for call-graph dispatch (dunders and
#: ubiquitous container methods would connect everything to everything).
_DISPATCH_STOPLIST = {
    "append",
    "extend",
    "add",
    "get",
    "pop",
    "items",
    "keys",
    "values",
    "update",
    "join",
    "split",
    "strip",
    "format",
    "copy",
    "sort",
    "index",
    "count",
    "clear",
    "remove",
    "insert",
    "setdefault",
    "astype",
    "reshape",
    "tolist",
    "sum",
    "mean",
    "min",
    "max",
}


def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for an Attribute chain rooted at a Name, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _literal_string(node: ast.AST) -> Optional[Tuple[str, bool]]:
    """``(value, is_pattern)`` for a string-ish expression, else ``None``.

    Plain string constants come back verbatim.  f-strings and ``+``
    concatenations with a constant head come back as ``"head*"`` with
    ``is_pattern=True`` (the dynamic tail is matched as a wildcard);
    fully dynamic expressions return ``None``.
    """
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value, False
    if isinstance(node, ast.JoinedStr):
        head = ""
        for part in node.values:
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                head += part.value
            else:
                return head + "*", True
        return head, False
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        left = _literal_string(node.left)
        if left is not None:
            value, _ = left
            return value.rstrip("*") + "*", True
    return None


@dataclasses.dataclass
class CallFact:
    """One call expression inside a function body."""

    callee: str  # dotted text ("net.rng.stream") or bare name
    kind: str  # "name" | "attr"
    lineno: int
    col: int
    #: Literal-string positional args by index (non-strings are None).
    str_args: List[Optional[str]]
    #: Literal-string keyword args.
    str_kwargs: Dict[str, str]

    @property
    def attr(self) -> str:
        """The final component — the dispatched name."""
        return self.callee.rsplit(".", 1)[-1]


@dataclasses.dataclass
class SinkFact:
    """A determinism sink: a wall-clock read or a ``global`` declaration."""

    api: str  # e.g. "time.perf_counter" / "global _SHARED"
    lineno: int
    col: int


@dataclasses.dataclass
class FunctionFact:
    """One function or method, with everything the graph rules need."""

    qualname: str  # "repro.core.join.join_mobile_node" / "...Class.method"
    name: str
    lineno: int
    params: List[str]
    is_method: bool
    calls: List[CallFact] = dataclasses.field(default_factory=list)
    wallclock: List[SinkFact] = dataclasses.field(default_factory=list)
    globals_decl: List[SinkFact] = dataclasses.field(default_factory=list)


@dataclasses.dataclass
class StreamUse:
    """A literal RNG stream name observed at a draw/creation site."""

    name: str
    pattern: bool
    lineno: int
    col: int
    via: str  # "stream" | "randint" | ... | "default"


@dataclasses.dataclass
class MetricUse:
    """A literal metric name at a ``counter(...)``/``histogram(...)`` site."""

    name: str
    pattern: bool
    factory: str  # "counter" | "histogram" | "series"
    role: str  # "emit" | "consume" | "unknown"
    lineno: int
    col: int


@dataclasses.dataclass
class AttrStore:
    """An attribute mutation: ``<base>.<attr> = ...`` / ``+=`` / ``[...] =``."""

    base: str  # dotted receiver text ("self._store"), "" when unresolvable
    attr: str
    lineno: int
    col: int


@dataclasses.dataclass
class ModuleFacts:
    """Everything the whole-program rules need to know about one file."""

    path: str
    module: Tuple[str, ...]
    is_package: bool
    imports: Dict[str, str] = dataclasses.field(default_factory=dict)
    functions: List[FunctionFact] = dataclasses.field(default_factory=list)
    stream_uses: List[StreamUse] = dataclasses.field(default_factory=list)
    #: Function qualname → index of its ``stream`` parameter.
    stream_params: Dict[str, int] = dataclasses.field(default_factory=dict)
    metric_uses: List[MetricUse] = dataclasses.field(default_factory=list)
    attr_stores: List[AttrStore] = dataclasses.field(default_factory=list)
    #: Dotted receiver prefixes bound to columnar constructors.
    columnar_bases: List[str] = dataclasses.field(default_factory=list)
    #: Literal registries found in this module (STREAMS, METRIC_NAMES, ...).
    registries: Dict[str, Any] = dataclasses.field(default_factory=dict)
    #: Names passed as the worker argument to ``sweep_map``.
    sweep_workers: List[str] = dataclasses.field(default_factory=list)

    @property
    def dotted(self) -> str:
        return ".".join(self.module)

    def subsystem(self) -> str:
        """The owning subsystem: the first two dotted components
        (``repro.core``), or the whole module path when shorter."""
        return ".".join(self.module[:2])

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form (the cache entry payload)."""
        data = dataclasses.asdict(self)
        data["module"] = list(self.module)
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ModuleFacts":
        """Rebuild facts from :meth:`to_dict` output (cache hits)."""
        return cls(
            path=data["path"],
            module=tuple(data["module"]),
            is_package=data["is_package"],
            imports=dict(data["imports"]),
            functions=[
                FunctionFact(
                    qualname=f["qualname"],
                    name=f["name"],
                    lineno=f["lineno"],
                    params=list(f["params"]),
                    is_method=f["is_method"],
                    calls=[CallFact(**c) for c in f["calls"]],
                    wallclock=[SinkFact(**s) for s in f["wallclock"]],
                    globals_decl=[SinkFact(**s) for s in f["globals_decl"]],
                )
                for f in data["functions"]
            ],
            stream_uses=[StreamUse(**u) for u in data["stream_uses"]],
            stream_params=dict(data["stream_params"]),
            metric_uses=[MetricUse(**u) for u in data["metric_uses"]],
            attr_stores=[AttrStore(**s) for s in data["attr_stores"]],
            columnar_bases=list(data["columnar_bases"]),
            registries=dict(data["registries"]),
            sweep_workers=list(data["sweep_workers"]),
        )


# ----------------------------------------------------------------------
# Registry literal evaluation
# ----------------------------------------------------------------------
#: Module-level constants the analyzer reads out of the source tree.
REGISTRY_NAMES = {"STREAMS", "METRIC_NAMES", "OWNED_COLUMNS"}


def _eval_registry_value(node: ast.AST) -> Any:
    """Best-effort literal evaluation for registry right-hand sides.

    Supports constants, tuples/lists/sets/dicts of the same, and
    ``StreamSpec(...)``-style calls (folded to a dict of their literal
    keyword arguments).  Anything else raises ``ValueError``.
    """
    if isinstance(node, ast.Constant):
        return node.value
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return [_eval_registry_value(e) for e in node.elts]
    if isinstance(node, ast.Dict):
        out: Dict[Any, Any] = {}
        for key, value in zip(node.keys, node.values):
            if key is None:
                raise ValueError("dict unpacking in registry literal")
            evaluated = _eval_registry_value(value)
            if isinstance(evaluated, dict):
                evaluated["lineno"] = value.lineno
            out[_eval_registry_value(key)] = evaluated
        return out
    if isinstance(node, ast.Call):
        if node.args:
            raise ValueError("registry spec calls must use keyword arguments")
        name = node.func.id if isinstance(node.func, ast.Name) else None
        if name in ("frozenset", "set", "tuple", "list") and not node.keywords:
            return []
        return {
            kw.arg: _eval_registry_value(kw.value)
            for kw in node.keywords
            if kw.arg is not None
        }
    raise ValueError(f"unsupported registry literal: {ast.dump(node)[:60]}")


# ----------------------------------------------------------------------
# Fact extraction
# ----------------------------------------------------------------------
class _FactsVisitor:
    """One pass over a module tree filling a :class:`ModuleFacts`."""

    def __init__(self, facts: ModuleFacts) -> None:
        self.facts = facts
        self._time_modules: Set[str] = set()
        self._time_functions: Set[str] = set()
        self._datetime_names: Set[str] = set()
        self._columnar_ctors: Set[str] = set()

    # -- imports -------------------------------------------------------
    def _resolve_from(self, node: ast.ImportFrom) -> Optional[str]:
        """Absolute dotted module for a (possibly relative) import-from."""
        if node.level == 0:
            return node.module
        package = list(self.facts.module)
        if not self.facts.is_package:
            package = package[:-1]
        hops = node.level - 1
        if hops > len(package):
            return None
        base = package[: len(package) - hops]
        if node.module:
            base = base + node.module.split(".")
        return ".".join(base)

    def visit_imports(self, tree: ast.Module) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    self.facts.imports[bound] = target
                    root = alias.name.split(".")[0]
                    if root == "time" and alias.name == "time":
                        self._time_modules.add(bound)
                    if alias.name == "datetime":
                        self._datetime_names.add(bound)
            elif isinstance(node, ast.ImportFrom):
                module = self._resolve_from(node)
                if module is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    bound = alias.asname or alias.name
                    self.facts.imports[bound] = f"{module}.{alias.name}"
                    if module == "time":
                        self._time_functions.add(bound)
                    if module == "datetime" and alias.name in ("datetime", "date"):
                        self._datetime_names.add(bound)
                    if module.endswith("columnar") and alias.name in (
                        "ColumnarStore",
                        "ColumnarDirectory",
                    ):
                        self._columnar_ctors.add(bound)
        # ``import time as _time`` style aliases.
        for bound, target in self.facts.imports.items():
            if target == "time":
                self._time_modules.add(bound)

    # -- wall-clock reads ------------------------------------------------
    def _wallclock_api(self, call: ast.Call) -> Optional[str]:
        func = call.func
        if isinstance(func, ast.Name):
            if func.id in self._time_functions and func.id in _TIME_FUNCS:
                return f"time.{func.id}"
            bound = self.facts.imports.get(func.id)
            if bound is not None and bound.startswith("time.") and bound.split(".", 1)[1] in _TIME_FUNCS:
                return bound
            return None
        dotted = _dotted(func)
        if dotted is None:
            return None
        parts = dotted.split(".")
        if len(parts) == 2 and parts[0] in self._time_modules and parts[1] in _TIME_FUNCS:
            return f"time.{parts[1]}"
        if parts[-1] in _DATETIME_FUNCS and parts[0] in self._datetime_names:
            return dotted
        return None

    # -- stream / metric literals ----------------------------------------
    def _record_stream_use(self, call: ast.Call) -> None:
        func = call.func
        if not (isinstance(func, ast.Attribute) and func.attr in RNG_NAME_METHODS):
            return
        if not call.args:
            return
        lit = _literal_string(call.args[0])
        if lit is None:
            return
        name, pattern = lit
        self.facts.stream_uses.append(
            StreamUse(
                name=name,
                pattern=pattern,
                lineno=call.lineno,
                col=call.col_offset,
                via=func.attr,
            )
        )

    def _metric_role(self, call: ast.Call, parents: Mapping[int, ast.AST]) -> str:
        """Classify a ``counter("x")`` call as emit or consume from its
        immediate syntactic context."""
        parent = parents.get(id(call))
        if isinstance(parent, ast.Attribute):
            grand = parents.get(id(parent))
            if isinstance(grand, ast.Call) and grand.func is parent:
                return "emit" if parent.attr in METRIC_MUTATORS else "consume"
            # ``counter("x").value`` — a plain attribute read.
            return "consume"
        return "unknown"

    def _record_metric_use(
        self, call: ast.Call, parents: Mapping[int, ast.AST]
    ) -> None:
        func = call.func
        if not (isinstance(func, ast.Attribute) and func.attr in METRIC_FACTORIES):
            return
        if not call.args:
            return
        lit = _literal_string(call.args[0])
        if lit is None:
            return
        name, pattern = lit
        self.facts.metric_uses.append(
            MetricUse(
                name=name,
                pattern=pattern,
                factory=func.attr,
                role=self._metric_role(call, parents),
                lineno=call.lineno,
                col=call.col_offset,
            )
        )

    # -- function bodies --------------------------------------------------
    def _call_fact(self, call: ast.Call) -> Optional[CallFact]:
        func = call.func
        if isinstance(func, ast.Name):
            callee, kind = func.id, "name"
        elif isinstance(func, ast.Attribute):
            callee = _dotted(func) or func.attr
            kind = "attr"
        else:
            return None
        str_args: List[Optional[str]] = []
        for arg in call.args:
            lit = _literal_string(arg)
            str_args.append(lit[0] + ("*" if lit[1] and not lit[0].endswith("*") else "") if lit else None)
        str_kwargs: Dict[str, str] = {}
        for kw in call.keywords:
            if kw.arg is None:
                continue
            lit = _literal_string(kw.value)
            if lit is not None:
                str_kwargs[kw.arg] = lit[0] + ("*" if lit[1] and not lit[0].endswith("*") else "")
        return CallFact(
            callee=callee,
            kind=kind,
            lineno=call.lineno,
            col=call.col_offset,
            str_args=str_args,
            str_kwargs=str_kwargs,
        )

    def _attr_store(self, target: ast.AST, lineno: int, col: int) -> None:
        node = target
        # ``x.col[...] = v`` mutates the column in place too.
        if isinstance(node, ast.Subscript):
            node = node.value
        if not isinstance(node, ast.Attribute):
            return
        base = _dotted(node.value) or ""
        self.facts.attr_stores.append(
            AttrStore(base=base, attr=node.attr, lineno=lineno, col=col)
        )

    def _scan_body(
        self,
        fact: FunctionFact,
        body: Sequence[ast.stmt],
        parents: Mapping[int, ast.AST],
    ) -> None:
        stack: List[ast.AST] = list(body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue  # nested functions get their own FunctionFact
            if isinstance(node, ast.Call):
                cf = self._call_fact(node)
                if cf is not None:
                    fact.calls.append(cf)
                api = self._wallclock_api(node)
                if api is not None:
                    fact.wallclock.append(
                        SinkFact(api=api, lineno=node.lineno, col=node.col_offset)
                    )
                self._record_stream_use(node)
                self._record_metric_use(node, parents)
                self._maybe_sweep_worker(node)
            elif isinstance(node, ast.Global):
                fact.globals_decl.append(
                    SinkFact(
                        api="global " + ", ".join(node.names),
                        lineno=node.lineno,
                        col=node.col_offset,
                    )
                )
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    self._attr_store(target, node.lineno, node.col_offset)
                self._maybe_columnar_binding(node)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                self._attr_store(node.target, node.lineno, node.col_offset)
            stack.extend(ast.iter_child_nodes(node))

    def _maybe_sweep_worker(self, call: ast.Call) -> None:
        func = call.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
        if name == "sweep_map" and call.args and isinstance(call.args[0], ast.Name):
            self.facts.sweep_workers.append(call.args[0].id)

    def _maybe_columnar_binding(self, node: ast.Assign) -> None:
        value = node.value
        if not (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)):
            return
        if value.func.id not in self._columnar_ctors:
            return
        for target in node.targets:
            base = _dotted(target)
            if base is not None:
                self.facts.columnar_bases.append(base)

    # -- driver ------------------------------------------------------------
    def run(self, tree: ast.Module) -> None:
        self.visit_imports(tree)
        parents: Dict[int, ast.AST] = {}
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                parents[id(child)] = node

        module_dotted = self.facts.dotted

        def walk_scope(
            body: Sequence[ast.stmt], prefix: str, in_class: bool
        ) -> None:
            # Collect this scope's own statements for the enclosing
            # pseudo-function, then recurse into defs/classes.
            for stmt in body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qual = f"{prefix}.{stmt.name}"
                    fact = FunctionFact(
                        qualname=qual,
                        name=stmt.name,
                        lineno=stmt.lineno,
                        params=[a.arg for a in stmt.args.args],
                        is_method=in_class,
                    )
                    self._scan_body(fact, stmt.body, parents)
                    self.facts.functions.append(fact)
                    for i, param in enumerate(fact.params):
                        if self._is_stream_param(param):
                            self.facts.stream_params[qual] = i
                            break
                    else:
                        # Keyword-only stream params flow via kwargs (-1
                        # never matches a positional index).
                        if any(
                            self._is_stream_param(a.arg)
                            for a in stmt.args.kwonlyargs
                        ):
                            self.facts.stream_params[qual] = -1
                    # Literal defaults for a ``stream`` parameter are
                    # stream names in their own right.
                    self._stream_defaults(stmt)
                    walk_scope(stmt.body, qual, in_class=False)
                elif isinstance(stmt, ast.ClassDef):
                    walk_scope(stmt.body, f"{prefix}.{stmt.name}", in_class=True)

        # Top-level (<module>) pseudo-function: everything not nested in a def.
        top = FunctionFact(
            qualname=f"{module_dotted}.{MODULE_FUNCTION}",
            name=MODULE_FUNCTION,
            lineno=1,
            params=[],
            is_method=False,
        )
        self._scan_body(top, self._toplevel_statements(tree), parents)
        self.facts.functions.append(top)
        walk_scope(tree.body, module_dotted, in_class=False)
        self._extract_registries(tree)

    @staticmethod
    def _is_stream_param(name: str) -> bool:
        return name == "stream" or name.endswith("_stream")

    def _stream_defaults(self, fn: ast.FunctionDef) -> None:
        args = fn.args
        pos = args.args
        defaults = args.defaults
        offset = len(pos) - len(defaults)
        for i, default in enumerate(defaults):
            if not self._is_stream_param(pos[offset + i].arg):
                continue
            lit = _literal_string(default)
            if lit is not None:
                self.facts.stream_uses.append(
                    StreamUse(
                        name=lit[0],
                        pattern=lit[1],
                        lineno=default.lineno,
                        col=default.col_offset,
                        via="default",
                    )
                )
        for kwarg, kwdefault in zip(args.kwonlyargs, args.kw_defaults):
            if self._is_stream_param(kwarg.arg) and kwdefault is not None:
                lit = _literal_string(kwdefault)
                if lit is not None:
                    self.facts.stream_uses.append(
                        StreamUse(
                            name=lit[0],
                            pattern=lit[1],
                            lineno=kwdefault.lineno,
                            col=kwdefault.col_offset,
                            via="default",
                        )
                    )

    @staticmethod
    def _toplevel_statements(tree: ast.Module) -> List[ast.stmt]:
        out: List[ast.stmt] = []
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            out.append(stmt)
        return out

    def _extract_registries(self, tree: ast.Module) -> None:
        for stmt in tree.body:
            targets: List[ast.expr]
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            else:
                continue
            for target in targets:
                if isinstance(target, ast.Name) and target.id in REGISTRY_NAMES:
                    try:
                        self.facts.registries[target.id] = {
                            "value": _eval_registry_value(value),
                            "lineno": stmt.lineno,
                        }
                    except ValueError:
                        self.facts.registries[target.id] = {
                            "value": None,
                            "lineno": stmt.lineno,
                        }


def extract_facts(
    tree: ast.Module, path: str, module: Tuple[str, ...]
) -> ModuleFacts:
    """Distil one parsed module into its :class:`ModuleFacts`."""
    facts = ModuleFacts(
        path=path,
        module=module,
        is_package=path.replace("\\", "/").endswith("/__init__.py"),
    )
    _FactsVisitor(facts).run(tree)
    return facts


# ----------------------------------------------------------------------
# The project graph
# ----------------------------------------------------------------------
class Project:
    """Symbol table + import graph + approximate call graph over a set of
    :class:`ModuleFacts` (normally: every module under ``repro``)."""

    def __init__(self, modules: Sequence[ModuleFacts]) -> None:
        self.modules: Dict[str, ModuleFacts] = {}
        for facts in modules:
            self.modules[facts.dotted] = facts
        self.functions: Dict[str, FunctionFact] = {}
        self.fact_module: Dict[str, ModuleFacts] = {}
        self.by_name: Dict[str, List[str]] = {}
        for facts in self.modules.values():
            for fn in facts.functions:
                self.functions[fn.qualname] = fn
                self.fact_module[fn.qualname] = facts
                if fn.name != MODULE_FUNCTION:
                    self.by_name.setdefault(fn.name, []).append(fn.qualname)
        #: module → set of project modules it imports (the import graph).
        self.import_graph: Dict[str, Set[str]] = {
            dotted: set(self._imported_modules(facts))
            for dotted, facts in self.modules.items()
        }
        self._edges: Optional[Dict[str, List[Tuple[str, CallFact]]]] = None

    # -- symbol resolution --------------------------------------------------
    def _imported_modules(self, facts: ModuleFacts) -> Iterator[str]:
        for target in facts.imports.values():
            # ``from pkg.mod import symbol`` → pkg.mod; ``import pkg.mod`` → pkg.mod
            if target in self.modules:
                yield target
            elif "." in target and target.rsplit(".", 1)[0] in self.modules:
                yield target.rsplit(".", 1)[0]

    def resolve_symbol(self, dotted: str, _depth: int = 0) -> Optional[str]:
        """Follow import/re-export chains to a project function qualname.

        ``repro.lint.lint_paths`` → ``repro.lint.engine.lint_paths`` when
        the package ``__init__`` re-exports it.  Returns ``None`` for
        names that never land on a project function (stdlib, classes,
        data).
        """
        if _depth > 8:  # re-export cycle guard
            return None
        if dotted in self.functions:
            return dotted
        if "." not in dotted:
            return None
        owner, leaf = dotted.rsplit(".", 1)
        facts = self.modules.get(owner)
        if facts is None:
            return None
        alias = facts.imports.get(leaf)
        if alias is not None:
            return self.resolve_symbol(alias, _depth + 1)
        return None

    # -- call graph ------------------------------------------------------
    def resolve_call(
        self, facts: ModuleFacts, caller: FunctionFact, call: CallFact
    ) -> List[str]:
        """Possible callee qualnames for one call site.

        Resolution order: local module functions, imported symbols
        (through re-export chains), ``self.method`` within the caller's
        class, dotted module attributes — then the attribute-name
        approximation (every project function with that bare name).
        """
        if call.kind == "name":
            local = f"{facts.dotted}.{call.callee}"
            if local in self.functions:
                return [local]
            target = facts.imports.get(call.callee)
            if target is not None:
                resolved = self.resolve_symbol(target)
                return [resolved] if resolved else []
            return []
        parts = call.callee.split(".")
        attr = parts[-1]
        if len(parts) >= 2:
            root = parts[0]
            if root == "self" and len(parts) == 2 and caller.is_method:
                cls_prefix = caller.qualname.rsplit(".", 1)[0]
                candidate = f"{cls_prefix}.{attr}"
                if candidate in self.functions:
                    return [candidate]
            target = facts.imports.get(root)
            if target is not None and len(parts) == 2:
                resolved = self.resolve_symbol(f"{target}.{attr}")
                if resolved is not None:
                    return [resolved]
        if attr.startswith("__") or attr in _DISPATCH_STOPLIST:
            return []
        return list(self.by_name.get(attr, ()))

    def call_edges(self) -> Dict[str, List[Tuple[str, CallFact]]]:
        """The full call graph: caller qualname → [(callee, call-site)]."""
        if self._edges is None:
            edges: Dict[str, List[Tuple[str, CallFact]]] = {}
            for facts in self.modules.values():
                for fn in facts.functions:
                    out: List[Tuple[str, CallFact]] = []
                    for call in fn.calls:
                        for callee in self.resolve_call(facts, fn, call):
                            if callee != fn.qualname:
                                out.append((callee, call))
                    edges[fn.qualname] = out
            self._edges = edges
        return self._edges

    def reach_chains(
        self, tainted: Mapping[str, SinkFact]
    ) -> Dict[str, Tuple[List[str], SinkFact]]:
        """For every function that can reach a tainted function, the
        shortest call chain (as a qualname list ending at the sink
        function) and the sink itself.  Directly tainted functions map to
        a single-element chain.
        """
        edges = self.call_edges()
        # BFS backwards over reversed edges, shortest chain wins.
        reverse: Dict[str, List[str]] = {}
        for caller, outs in edges.items():
            for callee, _ in outs:
                reverse.setdefault(callee, []).append(caller)
        result: Dict[str, Tuple[List[str], SinkFact]] = {}
        frontier: List[str] = []
        for qual, sink in tainted.items():
            result[qual] = ([qual], sink)
            frontier.append(qual)
        while frontier:
            nxt: List[str] = []
            for callee in frontier:
                chain, sink = result[callee]
                for caller in sorted(reverse.get(callee, ())):
                    if caller in result:
                        continue
                    result[caller] = ([caller] + chain, sink)
                    nxt.append(caller)
            frontier = nxt
        return result
