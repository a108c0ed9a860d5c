"""Linter engine: file walking, suppressions, and reporting.

Each file is parsed once, handed to every rule in
:mod:`repro.lint.rules`, and the hits are filtered through the file's
inline-suppression table.  No rule looks past the file it is given.

Suppression syntax (the reason is mandatory)::

    expr()  # repro-lint: disable=BRS001 fixture exercises the bad API
    # repro-lint: disable=BRS002,BRS006 reason text     (whole next line)

A comment-only suppression line applies to the next source line, so
multi-line statements can be suppressed without trailing comments.
"""

from __future__ import annotations

import ast
import dataclasses
import os
import re
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

__all__ = [
    "Violation",
    "FileContext",
    "LintReport",
    "iter_python_files",
    "lint_source",
    "lint_file",
    "lint_paths",
    "report_as_dict",
]

#: Pseudo-rule reported when a suppression comment carries no reason.
SUPPRESSION_CODE = "BRS000"

_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*disable=([A-Z]{3}\d{3}(?:\s*,\s*[A-Z]{3}\d{3})*)(.*)$"
)


@dataclasses.dataclass(frozen=True)
class Violation:
    """One rule hit: where it is and what discipline it breaks."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly representation (one array entry in the report)."""
        return dataclasses.asdict(self)

    def render(self) -> str:
        """``path:line:col: RULE message`` — editor-clickable."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


@dataclasses.dataclass
class FileContext:
    """Everything a rule may inspect about one file."""

    path: str
    module: Tuple[str, ...]
    tree: ast.Module

    def in_repro(self) -> bool:
        """True when the file is part of the ``repro`` package."""
        return self.module[:1] == ("repro",)

    def is_module(self, *parts: str) -> bool:
        """True when the dotted module path equals ``parts`` exactly."""
        return self.module == parts


@dataclasses.dataclass
class LintReport:
    """Aggregate result of one lint run."""

    files: int
    violations: List[Violation]

    @property
    def clean(self) -> bool:
        return not self.violations

    def counts(self) -> Dict[str, int]:
        """Violation count per rule code, sorted by code."""
        out: Dict[str, int] = {}
        for v in sorted(self.violations, key=lambda v: v.rule):
            out[v.rule] = out.get(v.rule, 0) + 1
        return out


def _module_parts(path: str) -> Tuple[str, ...]:
    """Best-effort dotted module path: everything from the last ``repro``
    path segment on (``src/repro/core/ldt.py`` → ``("repro","core","ldt")``).

    Files outside a ``repro`` tree (tests, benchmarks) keep their own
    trailing segments so path-scoped rules simply never match them.
    """
    norm = path.replace(os.sep, "/")
    parts = [p for p in norm.split("/") if p and p != "."]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if "repro" in parts:
        parts = parts[len(parts) - 1 - parts[::-1].index("repro"):]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return tuple(parts)


def _parse_suppressions(
    source_lines: Sequence[str], path: str
) -> Tuple[Dict[int, Set[str]], List[Violation]]:
    """Scan source lines for suppression comments.

    Returns ``line → {codes}`` (comment-only lines also cover the next
    line) plus the BRS000 violations for reasonless suppressions.
    """
    table: Dict[int, Set[str]] = {}
    problems: List[Violation] = []
    for lineno, line in enumerate(source_lines, start=1):
        m = _SUPPRESS_RE.search(line)
        if m is None:
            continue
        codes = {c.strip() for c in m.group(1).split(",")}
        if not m.group(2).strip():
            problems.append(
                Violation(
                    rule=SUPPRESSION_CODE,
                    path=path,
                    line=lineno,
                    col=line.index("#"),
                    message="suppression comment must state a reason "
                    "(# repro-lint: disable=BRS00X <why>)",
                )
            )
            continue
        table.setdefault(lineno, set()).update(codes)
        if line.lstrip().startswith("#"):
            # Comment-only line: the suppression targets the next line.
            table.setdefault(lineno + 1, set()).update(codes)
    return table, problems


def _selected_codes(
    select: Optional[Iterable[str]], ignore: Optional[Iterable[str]]
) -> Set[str]:
    from .rules import RULES

    codes = set(select) if select else set(RULES)
    if ignore:
        codes -= set(ignore)
    unknown = codes - set(RULES)
    if unknown:
        raise ValueError(f"unknown rule code(s): {sorted(unknown)}")
    return codes


def lint_source(
    source: str,
    path: str = "<string>",
    *,
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> List[Violation]:
    """Lint one source string as though it lived at ``path``.

    ``path`` drives the path-scoped rules (most fire only under
    ``repro/``, some only in named modules), which is what the fixture
    tests exploit: the same snippet can be checked in and out of scope.
    Syntax errors are reported as one ``PARSE`` violation, never raised.
    """
    from .rules import RULES

    codes = _selected_codes(select, ignore)
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return [
            Violation(
                rule="PARSE",
                path=path,
                line=exc.lineno or 1,
                col=exc.offset or 0,
                message=f"syntax error: {exc.msg}",
            )
        ]
    suppressions, found = _parse_suppressions(source.splitlines(), path)
    ctx = FileContext(path=path, module=_module_parts(path), tree=tree)
    for code in sorted(codes):
        for v in RULES[code].check(ctx):
            if v.rule not in suppressions.get(v.line, ()):
                found.append(v)
    return sorted(found, key=lambda v: (v.line, v.col, v.rule))


def lint_file(
    path: str,
    *,
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> List[Violation]:
    """Lint one file on disk."""
    with open(path, encoding="utf-8") as fh:
        return lint_source(fh.read(), path, select=select, ignore=ignore)


#: Directory names never descended into.
SKIP_DIRS = {"__pycache__", ".git", ".pytest_cache", "build", "dist"}


def iter_python_files(paths: Sequence[str]) -> Iterator[str]:
    """Yield every ``.py`` file under ``paths`` (files pass through as-is),
    in sorted order so reports are stable across filesystems."""
    for target in paths:
        if os.path.isfile(target):
            yield target
            continue
        for dirpath, dirnames, filenames in os.walk(target):
            dirnames[:] = sorted(
                d for d in dirnames if d not in SKIP_DIRS and not d.startswith(".")
            )
            for name in sorted(filenames):
                if name.endswith(".py"):
                    yield os.path.join(dirpath, name)


def lint_paths(
    paths: Sequence[str],
    *,
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> LintReport:
    """Lint every Python file under ``paths``; the CLI's workhorse."""
    _selected_codes(select, ignore)  # reject unknown codes before any I/O
    files = 0
    violations: List[Violation] = []
    for path in iter_python_files(paths):
        files += 1
        violations.extend(lint_file(path, select=select, ignore=ignore))
    violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
    return LintReport(files=files, violations=violations)


def report_as_dict(report: LintReport) -> Dict[str, object]:
    """The machine-readable (CI artifact) form of a lint run."""
    return {
        "kind": "repro-lint-report",
        "version": 1,
        "files": report.files,
        "violation_count": len(report.violations),
        "counts": report.counts(),
        "violations": [v.as_dict() for v in report.violations],
    }
