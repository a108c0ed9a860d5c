"""Run a measurement in a new interpreter (test support).

The timing-ratio gates take their rounds in a fresh process: garbage,
heap growth and warm caches left by the tests that ran before them in the
same pytest run then cannot land in one round and not the other.  The collector
stays on, so whatever collection cost the measured code causes is still
measured.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from typing import Any

__all__ = ["in_fresh_process"]

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def in_fresh_process(module: str, function: str, *args: Any, timeout: float = 600) -> Any:
    """``tests.<module>.<function>(*args)`` called in a new interpreter;
    the arguments and the result travel as JSON."""
    code = (
        "import importlib, json, sys; "
        f"f = getattr(importlib.import_module('tests.{module}'), '{function}'); "
        "print(json.dumps(f(*json.loads(sys.argv[1]))))"
    )
    src = os.path.join(ROOT, "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code, json.dumps(args)],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])
