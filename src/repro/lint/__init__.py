"""Repo-specific static analysis: the determinism & protocol-invariant linter.

``python -m repro.lint`` runs twelve AST-based checks (stdlib
:mod:`ast` only) that encode the invariants this reproduction's results
rest on — seeded randomness, virtual-time discipline, telemetry span
pairing, fork-safety of sweep workers, order-stable RNG populations, and
the per-point seed derivation rules.

v2 adds a whole-program layer: one pass over ``src/repro`` builds a
project model (symbol table, import graph, approximate call graph —
:mod:`repro.lint.project`) that powers four interprocedural rules
(:mod:`repro.lint.wholeprogram`): RNG-stream provenance against the
``repro.sim.rng.STREAMS`` registry (BRS010), call-graph-transitive
virtual-time purity with full offending chains (BRS011), metric-name
consistency against ``repro.sim.metrics.METRIC_NAMES`` (BRS012), and
columnar column ownership (BRS013).  Per-file analysis is cached by
content hash (:mod:`repro.lint.cache`) and known debt can be ratcheted
with a baseline file (:mod:`repro.lint.baseline`).

See docs/static-analysis.md for the rule catalogue and the rationale
tying each rule back to the paper.

Violations can be suppressed inline with a written reason::

    datetime.now(...)  # repro-lint: disable=BRS002 provenance timestamp

The suppression *must* carry a reason; a bare ``disable=`` comment is
itself reported (BRS000).
"""

from .engine import (
    REPORT_SCHEMA_VERSION,
    LintReport,
    Violation,
    iter_python_files,
    lint_file,
    lint_paths,
    lint_source,
    report_as_dict,
)
from .project import ModuleFacts, Project, extract_facts
from .rules import RULES, Rule
from .wholeprogram import PROJECT_RULES, ProjectRule

__all__ = [
    "LintReport",
    "Violation",
    "Rule",
    "RULES",
    "ProjectRule",
    "PROJECT_RULES",
    "ModuleFacts",
    "Project",
    "extract_facts",
    "iter_python_files",
    "lint_file",
    "lint_paths",
    "lint_source",
    "report_as_dict",
    "REPORT_SCHEMA_VERSION",
]
