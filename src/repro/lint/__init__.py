"""Repo-specific static analysis: the determinism linter.

``python -m repro.lint`` runs one AST pass per file (stdlib :mod:`ast`
only) with the checks that are the only net for their bug class —
seeded randomness, virtual-time discipline, fork-safety of sweep
workers, order-stable RNG populations, per-point seed derivation,
bounded metric memory, vectorised columnar kernels, and RNG-stream
provenance against ``repro.sim.rng.STREAMS``.  Bug classes a tier-1
test already catches have no rule.

See docs/static-analysis.md for the rule catalogue, the rationale tying
each rule back to the paper, and the tests that replaced retired rules.

Violations can be suppressed inline with a written reason::

    datetime.now(...)  # repro-lint: disable=BRS002 provenance timestamp

The suppression *must* carry a reason; a bare ``disable=`` comment is
itself reported (BRS000).
"""

from .engine import (
    LintReport,
    Violation,
    iter_python_files,
    lint_file,
    lint_paths,
    lint_source,
    report_as_dict,
)
from .rules import RULES, Rule

__all__ = [
    "LintReport",
    "Violation",
    "Rule",
    "RULES",
    "iter_python_files",
    "lint_file",
    "lint_paths",
    "lint_source",
    "report_as_dict",
]
