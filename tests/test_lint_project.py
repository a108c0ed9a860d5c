"""Multi-file fixture tests for ``repro.lint``.

Each fixture is a real ``tmp_path`` mini-tree (a ``repro/`` directory
root makes :func:`repro.lint.engine._module_parts` see the files as
package modules), linted through :func:`repro.lint.lint_paths` exactly
as ``python -m repro.lint`` lints ``src/``.  Covered here: RNG-stream
provenance against a fixture ``STREAMS`` registry (BRS010), the
cross-module bug classes the per-file rules close at the sink (a
wall-clock read anywhere in ``repro`` — BRS002; a ``global`` rebinding a
sweep worker can reach — BRS004), syntax errors and the CLI artifact.
"""

from __future__ import annotations

import json
import os
import re
import textwrap

import pytest

from repro.lint import RULES, lint_paths
from repro.lint.cli import main as lint_main
from repro.sim import rng as rng_module
from repro.sim.rng import StreamSpec

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def write_tree(tmp_path, files):
    """Materialise ``{relative path: source}`` under ``tmp_path``."""
    for rel, source in files.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source))
    return str(tmp_path)


def codes(violations):
    return sorted({v.rule for v in violations})


class TestProjectModel:
    def test_syntax_error_reported_not_raised(self, tmp_path):
        root = write_tree(
            tmp_path,
            {
                "repro/broken.py": "def nope(:\n",
                "repro/fine.py": "x = 1\n",
            },
        )
        report = lint_paths([root])
        assert report.files == 2
        parse = [v for v in report.violations if v.rule == "PARSE"]
        assert len(parse) == 1
        assert parse[0].path.endswith("broken.py")


# ----------------------------------------------------------------------
# BRS010 — RNG-stream provenance
# ----------------------------------------------------------------------
class TestStreamProvenance:
    @pytest.fixture(autouse=True)
    def registry(self, monkeypatch):
        """A fixture ``STREAMS``; tests that share a stream patch it."""
        streams = {"alpha": StreamSpec(owner="repro.core")}
        monkeypatch.setattr(rng_module, "STREAMS", streams)
        return streams

    def run(self, tmp_path, files):
        root = write_tree(tmp_path, files)
        return lint_paths([root], select=["BRS010"]).violations

    def test_registered_streams_clean(self, tmp_path):
        found = self.run(
            tmp_path,
            {
                "repro/core/use.py": """
                    def go(rng):
                        return rng.stream("alpha")
                """,
            },
        )
        assert found == []

    def test_unregistered_stream_fires(self, tmp_path):
        found = self.run(
            tmp_path,
            {
                "repro/core/use.py": """
                    def go(rng):
                        rng.stream("alpha")
                        return rng.stream("mystery")
                """,
            },
        )
        assert codes(found) == ["BRS010"]
        assert "mystery" in found[0].message

    def test_cross_subsystem_collision_fires(self, tmp_path):
        found = self.run(
            tmp_path,
            {
                "repro/core/owner.py": """
                    def go(rng):
                        return rng.stream("alpha")
                """,
                "repro/net/trespasser.py": """
                    def go(rng):
                        return rng.stream("alpha")
                """,
            },
        )
        assert codes(found) == ["BRS010"]
        assert found[0].path.endswith("trespasser.py")
        assert "repro.net" in found[0].message

    def test_shared_with_reason_clean(self, tmp_path, registry):
        registry["alpha"] = StreamSpec(
            owner="repro.core",
            shared=("repro.net",),
            reason="one logical workload stream by design",
        )
        found = self.run(
            tmp_path,
            {
                "repro/core/owner.py": """
                    def go(rng):
                        return rng.stream("alpha")
                """,
                "repro/net/guest.py": """
                    def go(rng):
                        return rng.stream("alpha")
                """,
            },
        )
        assert found == []

    def test_wildcard_entry_covers_fstring(self, tmp_path, registry):
        registry["churn.*"] = StreamSpec(owner="repro.core")
        found = self.run(
            tmp_path,
            {
                "repro/core/use.py": """
                    def go(rng, rate):
                        return rng.stream(f"churn.{rate}")
                """,
            },
        )
        assert found == []

    def test_literal_flows_through_stream_param(self, tmp_path):
        # The names a module hands to ``stream`` / ``*_stream`` parameters
        # — keyword arguments, parameter defaults, the key-draw helpers'
        # positional stream argument — are draw sites of that module.
        found = self.run(
            tmp_path,
            {
                "repro/workloads/gen.py": """
                    def draw(rng, stream="alpha"):
                        return rng.stream(stream)
                """,
                "repro/core/use.py": """
                    from repro.workloads.gen import draw

                    def go(rng, space):
                        space.random_keys(rng, "alpha", 4)
                        return draw(rng, stream="sneaky")
                """,
            },
        )
        assert codes(found) == ["BRS010"]
        messages = {v.path.rsplit("/", 1)[-1]: v.message for v in found}
        assert "sneaky" in messages["use.py"]
        # The workloads default draws "alpha" from outside its owner.
        assert "repro.workloads" in messages["gen.py"]


# ----------------------------------------------------------------------
# Cross-module bug classes, caught at the sink by the per-file rules
# ----------------------------------------------------------------------
class TestTransitivePurity:
    def test_direct_wallclock_left_to_brs002(self, tmp_path):
        root = write_tree(
            tmp_path,
            {
                "repro/core/driver.py": """
                    import time

                    def tick():
                        return time.time()
                """,
            },
        )
        assert codes(lint_paths([root]).violations) == ["BRS002"]

    def test_transitive_wallclock_caught_at_the_sink(self, tmp_path):
        # BRS002 covers every repro module, so a clock read a virtual-time
        # caller reaches through other modules is flagged where it is.
        root = write_tree(
            tmp_path,
            {
                "repro/sim/helper.py": """
                    import time

                    def slow_now():
                        return time.time()
                """,
                "repro/core/driver.py": """
                    from repro.sim.helper import slow_now

                    def tick():
                        return slow_now()
                """,
            },
        )
        found = lint_paths([root]).violations
        assert codes(found) == ["BRS002"]
        assert [v.path.rsplit("/", 1)[-1] for v in found] == ["helper.py"]

    def test_sink_in_allowed_module_clean(self, tmp_path):
        root = write_tree(
            tmp_path,
            {
                "repro/sim/profile.py": """
                    import time

                    def now():
                        return time.perf_counter()
                """,
                "repro/core/driver.py": """
                    from repro.sim.profile import now

                    def tick():
                        return now()
                """,
            },
        )
        assert lint_paths([root]).violations == []

    def test_suppression_at_sink_silences_chain(self, tmp_path):
        root = write_tree(
            tmp_path,
            {
                "repro/sim/helper.py": """
                    import time

                    def slow_now():
                        return time.time()  # repro-lint: disable=BRS002 wall time feeds a log label only
                """,
                "repro/core/driver.py": """
                    from repro.sim.helper import slow_now

                    def tick():
                        return slow_now()
                """,
            },
        )
        assert lint_paths([root]).violations == []

    def test_worker_global_mutation_fires(self, tmp_path):
        root = write_tree(
            tmp_path,
            {
                "repro/net/cachemod.py": """
                    _STATE = None

                    def get_state():
                        global _STATE
                        if _STATE is None:
                            _STATE = object()
                        return _STATE
                """,
                "repro/experiments/sweep.py": """
                    from repro.net.cachemod import get_state

                    def _point(pt):
                        return get_state()

                    def drive(sweep_map, points):
                        return sweep_map(_point, points)
                """,
            },
        )
        found = lint_paths([root]).violations
        assert codes(found) == ["BRS004"]
        assert found[0].path.endswith("cachemod.py")
        assert "global _STATE" in found[0].message


class TestCatalogue:
    def test_thirteen_rules(self):
        """Thirteen codes were issued, BRS001–BRS013.  Each one is either
        registered and in the catalogue table of docs/static-analysis.md,
        or retired and in that page's retirement table with the test
        that covers its bug class; none is both, none is neither."""
        with open(os.path.join(ROOT, "docs", "static-analysis.md")) as fh:
            doc = fh.read()
        catalogued = set(re.findall(r"^\| (BRS\d{3}) \|", doc, re.M))
        retired = set(re.findall(r"^\| (BRS\d{3})[ ,]", doc, re.M)) - catalogued
        issued = {f"BRS{n:03d}" for n in range(1, 14)}
        assert set(RULES) == catalogued
        assert catalogued | retired == issued
        assert not catalogued & retired
        for code, rule in RULES.items():
            assert rule.code == code
            assert rule.name and rule.summary

    def test_output_creates_parent_dirs(self, tmp_path, capsys):
        target = tmp_path / "deep" / "nested" / "report.json"
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        assert lint_main([str(clean), "--output", str(target)]) == 0
        capsys.readouterr()
        assert json.loads(target.read_text())["kind"] == "repro-lint-report"
