"""Fixture tests for the ``repro.lint`` static-analysis rules.

Every rule gets a bad fixture (must fire) and a clean counterpart (must
stay silent).  Fixtures are source *strings* checked through
:func:`repro.lint.lint_source` with synthetic paths — path-scoped rules
(BRS002, BRS006 allow-lists) are exercised by linting the same snippet
under different paths — so no intentionally-bad ``.py`` file ever lands
under ``tests/`` where the meta-test would see it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap

import pytest

from repro.lint import (
    RULES,
    LintReport,
    lint_paths,
    lint_source,
    report_as_dict,
)
from repro.lint.cli import main as lint_main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


#: Every rule ``python -m repro.lint`` runs.
KEPT_RULES = ["BRS001", "BRS002", "BRS004", "BRS006", "BRS008", "BRS009", "BRS010"]


def codes(violations):
    return sorted({v.rule for v in violations})


def lint(source, path="repro/core/fixture.py", **kw):
    return lint_source(textwrap.dedent(source), path, **kw)


# ----------------------------------------------------------------------
# BRS001 — unseeded randomness
# ----------------------------------------------------------------------
class TestUnseededRandomness:
    def test_stdlib_random_fires(self):
        found = lint(
            """
            import random

            def pick(items):
                return random.choice(items)
            """
        )
        assert codes(found) == ["BRS001"]

    def test_from_import_fires(self):
        found = lint(
            """
            from random import shuffle

            def mix(items):
                shuffle(items)
            """
        )
        assert codes(found) == ["BRS001"]

    def test_legacy_numpy_random_fires(self):
        found = lint(
            """
            import numpy as np

            def draw(n):
                np.random.seed(0)
                return np.random.rand(n)
            """
        )
        assert [v.rule for v in found] == ["BRS001", "BRS001"]

    def test_seedless_default_rng_fires(self):
        found = lint(
            """
            from numpy.random import default_rng

            def make():
                return default_rng()
            """
        )
        assert codes(found) == ["BRS001"]

    def test_named_streams_clean(self):
        found = lint(
            """
            from repro.sim.rng import RngStreams

            def draw(seed, items):
                rng = RngStreams(seed)
                return rng.sample("fixture.draw", items, 2)
            """,
            select=["BRS001"],
        )
        assert found == []


# ----------------------------------------------------------------------
# BRS002 — wall clock in virtual-time code
# ----------------------------------------------------------------------
class TestWallClock:
    BAD = """
        import time
        from datetime import datetime

        def stamp():
            return time.time(), datetime.now()
        """

    def test_fires_in_virtual_time_packages(self):
        for pkg in ("core", "overlay", "experiments"):
            found = lint(self.BAD, path=f"repro/{pkg}/fixture.py")
            assert [v.rule for v in found] == ["BRS002", "BRS002"], pkg

    def test_silent_outside_scope(self):
        # The scope is all of ``repro``; tests and benchmarks time things.
        assert [v.rule for v in lint(self.BAD, path="repro/sim/fixture.py")] == [
            "BRS002", "BRS002"
        ]
        assert lint(self.BAD, path="tests/fixture.py") == []

    def test_silent_in_allowlisted_profiler(self):
        assert lint(self.BAD, path="repro/sim/profile.py") == []


# ----------------------------------------------------------------------
# BRS004 — fork-unsafe sweep workers
# ----------------------------------------------------------------------
class TestForkUnsafeWorker:
    def test_cache_mutation_in_worker_fires(self):
        found = lint(
            """
            from repro.experiments.parallel import sweep_map
            from repro.net.underlay import shared_underlay_cache

            def _point(p):
                shared_underlay_cache().clear()
                return p

            def run(points):
                return sweep_map(_point, points)
            """
        )
        assert codes(found) == ["BRS004"]

    def test_global_statement_in_worker_fires(self):
        found = lint(
            """
            from repro.experiments.parallel import sweep_map

            CACHE = {}

            def _point(p):
                global CACHE
                CACHE = {}
                return p

            def run(points):
                return sweep_map(_point, points)
            """
        )
        assert codes(found) == ["BRS004"]

    def test_read_only_worker_clean(self):
        found = lint(
            """
            from repro.experiments.parallel import sweep_map
            from repro.net.underlay import shared_underlay_cache

            def _point(p):
                bundle = shared_underlay_cache().get(p.seed, p.routers)
                return bundle

            def run(points):
                return sweep_map(_point, points)
            """
        )
        assert found == []

    def test_parent_prewarm_outside_worker_clean(self):
        found = lint(
            """
            from repro.experiments.parallel import sweep_map
            from repro.net.underlay import shared_underlay_cache

            def _point(p):
                return p

            def run(points):
                shared_underlay_cache().prewarm(points)
                return sweep_map(_point, points)
            """
        )
        assert found == []


# ----------------------------------------------------------------------
# BRS006 — raw seed arithmetic
# ----------------------------------------------------------------------
class TestSeedArithmetic:
    def test_seed_plus_index_fires(self):
        found = lint(
            """
            def configs(base_seed, trials):
                return [make(seed=base_seed + t) for t in range(trials)]
            """
        )
        assert codes(found) == ["BRS006"]

    def test_reports_outermost_expression_once(self):
        found = lint(
            """
            def worst(seed, i, j):
                return seed * 1000 + i * 10 + j
            """
        )
        assert [v.rule for v in found] == ["BRS006"]

    def test_derive_point_seed_clean(self):
        found = lint(
            """
            from repro.experiments.parallel import derive_point_seed

            def configs(base_seed, trials):
                return [
                    make(seed=derive_point_seed(base_seed, (t,)))
                    for t in range(trials)
                ]
            """
        )
        assert found == []

    def test_string_labels_mentioning_seed_clean(self):
        found = lint(
            """
            def label(seed):
                return "seed " + str(seed)
            """
        )
        assert found == []

    def test_allowlisted_rng_module_clean(self):
        found = lint(
            """
            def derive_seed(seed, name):
                return (seed + hash(name)) % (2**64)
            """,
            path="repro/sim/rng.py",
        )
        assert found == []


# ----------------------------------------------------------------------
# BRS008 — unbounded per-sample list accumulation
# ----------------------------------------------------------------------
class TestUnboundedSampleList:
    def test_append_in_observe_fires(self):
        found = lint(
            """
            class LatencyTracker:
                def __init__(self):
                    self._samples = []

                def observe(self, value):
                    self._samples.append(float(value))
            """,
            path="repro/core/tracker.py",
        )
        assert codes(found) == ["BRS008"]
        assert "unbounded" in found[0].message

    def test_extend_in_observe_many_fires(self):
        found = lint(
            """
            class Recorder:
                def __init__(self):
                    self.values = list()

                def observe_many(self, batch):
                    self.values.extend(batch)
            """,
            path="repro/sim/recorder.py",
        )
        assert codes(found) == ["BRS008"]

    def test_record_into_annotated_list_fires(self):
        found = lint(
            """
            class Stats:
                def __init__(self):
                    self._raw: List[float] = []

                def record(self, v):
                    self._raw.append(v)
            """,
            path="repro/experiments/stats.py",
        )
        assert codes(found) == ["BRS008"]

    def test_exact_oracle_module_allowlisted(self):
        found = lint(
            """
            class Histogram:
                def __init__(self):
                    self._samples = []

                def observe(self, value):
                    self._samples.append(float(value))
            """,
            path="repro/sim/metrics.py",
        )
        assert found == []

    def test_other_class_in_oracle_module_fires(self):
        # The exemption names Histogram, not the whole metrics module.
        found = lint(
            """
            class Histogram:
                def __init__(self):
                    self._samples = []

                def observe(self, value):
                    self._samples.append(float(value))

            class Trail:
                def __init__(self):
                    self._points = []

                def observe(self, value):
                    self._points.append(value)
            """,
            path="repro/sim/metrics.py",
        )
        assert codes(found) == ["BRS008"]
        assert len(found) == 1 and "Trail.observe()" in found[0].message

    def test_bounded_deque_clean(self):
        found = lint(
            """
            import collections

            class Tracker:
                def __init__(self):
                    self._recent = collections.deque(maxlen=128)

                def observe(self, value):
                    self._recent.append(value)
            """,
            path="repro/core/tracker.py",
        )
        assert found == []

    def test_append_outside_record_methods_clean(self):
        found = lint(
            """
            class TableBuilder:
                def __init__(self):
                    self.rows = []

                def add_row(self, row):
                    self.rows.append(row)
            """,
            path="repro/experiments/common2.py",
        )
        assert found == []

    def test_suppression_with_reason_honoured(self):
        found = lint(
            """
            class Oracle:
                def __init__(self):
                    self._all = []

                def observe(self, v):
                    self._all.append(v)  # repro-lint: disable=BRS008 parity oracle for tests
            """,
            path="repro/core/oracle.py",
        )
        assert found == []


# ----------------------------------------------------------------------
# BRS009 — per-row loops in columnar kernel modules
# ----------------------------------------------------------------------
class TestPerRowColumnarLoop:
    COLUMNAR = "src/repro/core/ldt_forest.py"

    def test_range_len_walk_fires(self):
        found = lint(
            """
            def export(table):
                out = []
                for i in range(len(table)):
                    out.append(table[i])
                return out
            """,
            path=self.COLUMNAR,
        )
        assert codes(found) == ["BRS009"]

    def test_tolist_materialisation_fires(self):
        found = lint(
            """
            def walk(col):
                for v in col.tolist():
                    print(v)
            """,
            path=self.COLUMNAR,
        )
        assert codes(found) == ["BRS009"]

    def test_membership_array_iteration_fires(self):
        found = lint(
            """
            def fanout(store):
                for h in store.holders:
                    store.send(h)
            """,
            path=self.COLUMNAR,
        )
        assert codes(found) == ["BRS009"]

    def test_bounded_loops_clean(self):
        # Loops over rounds / fixed column names are not per-row walks.
        found = lint(
            """
            def rounds(p, cols):
                for r in range(p.rounds):
                    pass
                for name in cols.items():
                    pass
            """,
            path=self.COLUMNAR,
        )
        assert found == []

    def test_out_of_scope_module_clean(self):
        # The object model may walk its members; only kernels are scoped.
        found = lint(
            """
            def holders(self, keys):
                for k in keys:
                    yield self._holders[k]
            """,
            path="repro/core/location.py",
        )
        assert found == []

    def test_suppression_with_reason_honoured(self):
        found = lint(
            """
            def snapshot_rows(self):
                for i in range(len(self)):  # repro-lint: disable=BRS009 canonical export walks rows by design
                    yield i
            """,
            path=self.COLUMNAR,
        )
        assert found == []


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------
class TestSuppressions:
    def test_inline_suppression_with_reason(self):
        found = lint(
            """
            import random

            def pick(items):
                return random.choice(items)  # repro-lint: disable=BRS001 fixture needs raw API
            """
        )
        assert found == []

    def test_comment_line_covers_next_line(self):
        found = lint(
            """
            import random

            def pick(items):
                # repro-lint: disable=BRS001 fixture needs raw API
                return random.choice(items)
            """
        )
        assert found == []

    def test_reasonless_suppression_reports_brs000(self):
        # Assembled so this test file's own source never contains a
        # reasonless suppression line for the linter to trip over.
        marker = "# repro-lint: " + "disable=BRS001"
        source = "import random\n\ndef pick(items):\n"
        source += f"    return random.choice(items)  {marker}\n"
        found = lint_source(source, "repro/core/fixture.py")
        assert codes(found) == ["BRS000", "BRS001"]

    def test_suppression_only_hides_named_code(self):
        found = lint(
            """
            import random
            import time

            def pick(items):
                random.shuffle(items)  # repro-lint: disable=BRS002 wrong code on purpose
            """
        )
        assert codes(found) == ["BRS001"]


# ----------------------------------------------------------------------
# Engine / CLI plumbing
# ----------------------------------------------------------------------
class TestEngine:
    def test_syntax_error_reported_as_parse(self):
        found = lint_source("def broken(:\n", "repro/core/fixture.py")
        assert codes(found) == ["PARSE"]

    def test_select_and_ignore(self):
        source = textwrap.dedent(
            """
            import random

            def pick(items, seed, i):
                return random.choice(items), seed + i
            """
        )
        only_seed = lint_source(
            source, "repro/core/fixture.py", select=["BRS006"]
        )
        assert codes(only_seed) == ["BRS006"]
        without_seed = lint_source(
            source, "repro/core/fixture.py", ignore=["BRS006"]
        )
        assert codes(without_seed) == ["BRS001"]

    def test_unknown_rule_code_rejected(self):
        with pytest.raises(ValueError):
            lint_source("x = 1\n", select=["BRS999"])

    def test_registry_lists_nine_rules(self):
        """Nine per-file codes were issued, BRS001–BRS009.  Only the rules
        that are the sole net for their bug class stay; BRS003, BRS005 and
        BRS007 are retired and never reissued (docs/static-analysis.md
        names the tests that replaced them)."""
        assert sorted(RULES) == KEPT_RULES
        issued = [f"BRS{n:03d}" for n in range(1, 10)]
        assert [c for c in issued if c not in RULES] == [
            "BRS003", "BRS005", "BRS007",
        ]
        for code, rule in RULES.items():
            assert rule.code == code
            assert rule.name and rule.summary

    def test_json_report_schema(self, tmp_path):
        fixture = tmp_path / "repro" / "core" / "bad.py"
        fixture.parent.mkdir(parents=True)
        fixture.write_text("import random\nrandom.random()\n")
        report = lint_paths([str(tmp_path)])
        payload = report_as_dict(report)
        # Round-trips as plain JSON and carries the documented keys.
        restored = json.loads(json.dumps(payload))
        assert restored["kind"] == "repro-lint-report"
        assert restored["version"] == 1
        assert restored["files"] == 1
        assert restored["violation_count"] == len(report.violations) == 1
        assert restored["counts"] == {"BRS001": 1}
        entry = restored["violations"][0]
        assert set(entry) == {"rule", "path", "line", "col", "message"}

    def test_cli_exit_codes_and_artifact(self, tmp_path, capsys):
        bad = tmp_path / "repro" / "core" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import random\nrandom.random()\n")
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        artifact = tmp_path / "report.json"

        assert lint_main([str(clean)]) == 0
        assert lint_main([str(bad), "--output", str(artifact)]) == 1
        payload = json.loads(artifact.read_text())
        assert payload["counts"] == {"BRS001": 1}
        assert lint_main([str(tmp_path / "missing.py")]) == 2
        capsys.readouterr()


# ----------------------------------------------------------------------
# Meta: the repository's own tree must lint clean
# ----------------------------------------------------------------------
class TestRepositoryClean:
    def test_src_and_tests_lint_clean_under_every_rule(self):
        report = lint_paths([os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")])
        assert isinstance(report, LintReport)
        assert report.files > 0
        offending = "\n".join(v.render() for v in report.violations)
        assert report.clean, f"repo tree has lint violations:\n{offending}"

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.lint", "src", "tests", "benchmarks"],
            cwd=ROOT,
            env={**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "0 violation(s)" in proc.stdout
