"""``python -m repro.lint`` — run the determinism linter over paths.

Exit codes: 0 clean, 1 violations found, 2 usage error.  Prints one
editor-clickable line per violation plus a summary; ``--output`` also
writes the machine-readable report (the CI artifact).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from .engine import lint_paths, report_as_dict

__all__ = ["main"]


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code (0/1/2)."""
    parser = argparse.ArgumentParser(
        prog="repro.lint",
        description="AST checks for the determinism invariants this "
        "reproduction depends on (see docs/static-analysis.md)",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--output",
        default=None,
        metavar="FILE",
        help="also write the JSON report to FILE (CI artifact); parent "
        "directories are created",
    )
    args = parser.parse_args(argv)
    missing = [p for p in args.paths if not os.path.exists(p)]
    if missing:
        print(f"error: no such file or directory: {', '.join(missing)}", file=sys.stderr)
        return 2
    report = lint_paths(args.paths)
    if args.output:
        os.makedirs(os.path.dirname(os.path.abspath(args.output)), exist_ok=True)
        with open(args.output, "w") as fh:
            json.dump(report_as_dict(report), fh, indent=2)
            fh.write("\n")
    for violation in report.violations:
        print(violation.render())
    status = "clean" if report.clean else ", ".join(
        f"{code}×{n}" for code, n in report.counts().items()
    )
    print(
        f"repro.lint: {report.files} files, "
        f"{len(report.violations)} violation(s) [{status}]"
    )
    return 0 if report.clean else 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
