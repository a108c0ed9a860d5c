"""Tests for the lint v2 whole-program layer.

Covers the project model (:mod:`repro.lint.project`): import-graph and
call-graph construction over synthetic mini-trees — cyclic imports,
syntax-error files (reported, never raised), re-exported symbols,
``from x import y as z`` aliasing — plus the incremental cache
(:mod:`repro.lint.cache`), the baseline ratchet
(:mod:`repro.lint.baseline`), and fixture tests for the four
interprocedural rules BRS010–BRS013.

Fixtures are real files in ``tmp_path`` mini-trees (a ``repro/``
directory root makes :func:`repro.lint.engine._module_parts` see them as
project modules), so the whole-program pass runs exactly as it does over
``src/repro``.
"""

from __future__ import annotations

import json
import textwrap

import pytest

from repro.lint import PROJECT_RULES, RULES, lint_paths, report_as_dict
from repro.lint.baseline import apply_baseline, load_baseline, write_baseline
from repro.lint.cache import CacheStore, content_digest, tool_signature
from repro.lint.cli import main as lint_main
from repro.lint.engine import REPORT_SCHEMA_VERSION, _module_parts
from repro.lint.project import Project, extract_facts
import ast


def write_tree(tmp_path, files):
    """Materialise ``{relative path: source}`` under ``tmp_path``."""
    for rel, source in files.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source))
    return str(tmp_path)


def project_from(tmp_path, files):
    """Build a :class:`Project` directly from fixture sources."""
    facts = []
    for rel, source in files.items():
        path = rel
        tree = ast.parse(textwrap.dedent(source))
        facts.append(extract_facts(tree, path, _module_parts(path)))
    return Project(facts)


def codes(violations):
    return sorted({v.rule for v in violations})


#: A minimal registry trio most fixtures share; individual tests override
#: the member they exercise.
RNG_MODULE = """
    STREAMS = {
        "alpha": StreamSpec(owner="repro.core"),
    }
"""

METRICS_MODULE = """
    METRIC_NAMES = {
        "ops.count": "counter",
    }
"""

COLUMNAR_MODULE = """
    OWNED_COLUMNS = ("keys", "expiry")

    class ColumnarStore:
        def __init__(self):
            self.keys = []
            self.expiry = []
"""


# ----------------------------------------------------------------------
# Project model
# ----------------------------------------------------------------------
class TestProjectModel:
    def test_cyclic_imports_build(self, tmp_path):
        files = {
            "repro/a.py": """
                from repro.b import beta

                def alpha():
                    return beta()
            """,
            "repro/b.py": """
                from repro.a import alpha

                def beta():
                    return alpha()
            """,
        }
        project = project_from(tmp_path, files)
        assert project.import_graph["repro.a"] == {"repro.b"}
        assert project.import_graph["repro.b"] == {"repro.a"}
        edges = project.call_edges()
        assert ("repro.b.beta" in [c for c, _ in edges["repro.a.alpha"]])
        assert ("repro.a.alpha" in [c for c, _ in edges["repro.b.beta"]])

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

    def test_reexported_symbol_resolves(self, tmp_path):
        files = {
            "repro/util/__init__.py": """
                from .impl import helper
            """,
            "repro/util/impl.py": """
                def helper():
                    return 1
            """,
            "repro/caller.py": """
                from repro.util import helper

                def go():
                    return helper()
            """,
        }
        project = project_from(tmp_path, files)
        assert (
            project.resolve_symbol("repro.util.helper")
            == "repro.util.impl.helper"
        )
        edges = dict(project.call_edges())
        assert [c for c, _ in edges["repro.caller.go"]] == [
            "repro.util.impl.helper"
        ]

    def test_import_as_alias_resolves(self, tmp_path):
        files = {
            "repro/util/impl.py": """
                def helper():
                    return 1
            """,
            "repro/caller.py": """
                from repro.util.impl import helper as h

                def go():
                    return h()
            """,
        }
        project = project_from(tmp_path, files)
        edges = dict(project.call_edges())
        assert [c for c, _ in edges["repro.caller.go"]] == [
            "repro.util.impl.helper"
        ]

    def test_relative_import_resolves(self, tmp_path):
        files = {
            "repro/pkg/__init__.py": "",
            "repro/pkg/impl.py": """
                def helper():
                    return 1
            """,
            "repro/pkg/caller.py": """
                from .impl import helper

                def go():
                    return helper()
            """,
        }
        project = project_from(tmp_path, files)
        edges = dict(project.call_edges())
        assert [c for c, _ in edges["repro.pkg.caller.go"]] == [
            "repro.pkg.impl.helper"
        ]

    def test_self_method_dispatch(self, tmp_path):
        files = {
            "repro/cls.py": """
                class Thing:
                    def outer(self):
                        return self.inner()

                    def inner(self):
                        return 1
            """,
        }
        project = project_from(tmp_path, files)
        edges = dict(project.call_edges())
        assert [c for c, _ in edges["repro.cls.Thing.outer"]] == [
            "repro.cls.Thing.inner"
        ]

    def test_attribute_dispatch_by_name(self, tmp_path):
        files = {
            "repro/a.py": """
                def frobnicate():
                    return 1
            """,
            "repro/b.py": """
                def go(obj):
                    return obj.frobnicate()
            """,
        }
        project = project_from(tmp_path, files)
        edges = dict(project.call_edges())
        assert [c for c, _ in edges["repro.b.go"]] == ["repro.a.frobnicate"]

    def test_reach_chains_shortest(self, tmp_path):
        files = {
            "repro/chain.py": """
                import time

                def sink():
                    return time.time()

                def mid():
                    return sink()

                def top():
                    return mid()

                def shortcut():
                    return sink()
            """,
        }
        project = project_from(tmp_path, files)
        sinks = {
            fn.qualname: fn.wallclock[0]
            for facts in project.modules.values()
            for fn in facts.functions
            if fn.wallclock
        }
        reach = project.reach_chains(sinks)
        assert [q.rsplit(".", 1)[-1] for q in reach["repro.chain.top"][0]] == [
            "top",
            "mid",
            "sink",
        ]
        assert [
            q.rsplit(".", 1)[-1] for q in reach["repro.chain.shortcut"][0]
        ] == ["shortcut", "sink"]


# ----------------------------------------------------------------------
# Incremental cache
# ----------------------------------------------------------------------
class TestCache:
    def test_warm_run_hits_everything(self, tmp_path):
        root = write_tree(tmp_path, {"repro/mod.py": "x = 1\n"})
        cache = tmp_path / "cache.json"
        cold = lint_paths([root], cache_path=str(cache))
        assert (cold.cache_hits, cold.cache_misses) == (0, 1)
        warm = lint_paths([root], cache_path=str(cache))
        assert (warm.cache_hits, warm.cache_misses) == (1, 0)
        assert warm.clean == cold.clean

    def test_content_change_invalidates_one_file(self, tmp_path):
        root = write_tree(
            tmp_path,
            {"repro/a.py": "x = 1\n", "repro/b.py": "y = 2\n"},
        )
        cache = tmp_path / "cache.json"
        lint_paths([root], cache_path=str(cache))
        (tmp_path / "repro" / "a.py").write_text("x = 3\n")
        rerun = lint_paths([root], cache_path=str(cache))
        assert (rerun.cache_hits, rerun.cache_misses) == (1, 1)

    def test_violations_survive_cache_round_trip(self, tmp_path):
        root = write_tree(
            tmp_path,
            {
                "repro/core/bad.py": """
                    import random

                    def pick(items):
                        return random.choice(items)
                """
            },
        )
        cache = tmp_path / "cache.json"
        cold = lint_paths([root], cache_path=str(cache))
        warm = lint_paths([root], cache_path=str(cache))
        assert warm.cache_hits == 1
        assert [v.as_dict() for v in warm.violations] == [
            v.as_dict() for v in cold.violations
        ]

    def test_signature_mismatch_discards_store(self, tmp_path):
        root = write_tree(tmp_path, {"repro/mod.py": "x = 1\n"})
        cache = tmp_path / "cache.json"
        lint_paths([root], cache_path=str(cache))
        payload = json.loads(cache.read_text())
        payload["signature"] = "0" * 64
        cache.write_text(json.dumps(payload))
        rerun = lint_paths([root], cache_path=str(cache))
        assert (rerun.cache_hits, rerun.cache_misses) == (0, 1)
        # And the store was rewritten under the current signature.
        assert json.loads(cache.read_text())["signature"] == tool_signature()

    def test_corrupt_store_recovers(self, tmp_path):
        root = write_tree(tmp_path, {"repro/mod.py": "x = 1\n"})
        cache = tmp_path / "cache.json"
        cache.write_text("{not json")
        report = lint_paths([root], cache_path=str(cache))
        assert report.cache_misses == 1
        assert json.loads(cache.read_text())["kind"] == "repro-lint-cache"

    def test_content_digest_is_content_only(self, tmp_path):
        assert content_digest("x = 1\n") == content_digest("x = 1\n")
        assert content_digest("x = 1\n") != content_digest("x = 2\n")

    def test_store_get_rejects_stale_digest(self, tmp_path):
        store = CacheStore.load(str(tmp_path / "c.json"))
        assert store.get("nope.py", content_digest("x")) is None


# ----------------------------------------------------------------------
# Baseline ratchet
# ----------------------------------------------------------------------
class TestBaseline:
    BAD = {
        "repro/core/bad.py": """
            import random

            def pick(items):
                return random.choice(items)
        """
    }

    def test_write_then_excuse(self, tmp_path):
        root = write_tree(tmp_path, self.BAD)
        baseline = tmp_path / "baseline.json"
        report = lint_paths([root])
        assert not report.clean
        count = write_baseline(str(baseline), report)
        assert count == len(report.violations)
        excused = lint_paths([root], baseline_path=str(baseline))
        assert excused.clean
        assert len(excused.baselined) == count
        assert excused.stale_baseline == []

    def test_new_violation_still_fails(self, tmp_path):
        root = write_tree(tmp_path, self.BAD)
        baseline = tmp_path / "baseline.json"
        write_baseline(str(baseline), lint_paths([root]))
        (tmp_path / "repro" / "core" / "worse.py").write_text(
            "import random\nrandom.random()\n"
        )
        report = lint_paths([root], baseline_path=str(baseline))
        assert not report.clean
        assert all(v.path.endswith("worse.py") for v in report.violations)

    def test_fixed_violation_goes_stale(self, tmp_path):
        root = write_tree(tmp_path, self.BAD)
        baseline = tmp_path / "baseline.json"
        write_baseline(str(baseline), lint_paths([root]))
        (tmp_path / "repro" / "core" / "bad.py").write_text("x = 1\n")
        report = lint_paths([root], baseline_path=str(baseline))
        assert report.clean
        assert len(report.stale_baseline) == 1

    def test_multiplicity_budget(self, tmp_path):
        root = write_tree(
            tmp_path,
            {
                "repro/core/bad.py": """
                    import random

                    def pick(items):
                        return random.choice(items)

                    def pick2(items):
                        return random.choice(items)
                """
            },
        )
        report = lint_paths([root])
        fps = [v.fingerprint() for v in report.violations]
        assert len(fps) == 2 and len(set(fps)) == 1  # same fingerprint twice
        baseline = tmp_path / "baseline.json"
        write_baseline(str(baseline), report)
        entries = load_baseline(str(baseline))
        assert len(entries) == 2
        # One recorded hit excuses one violation, not both.
        apply_baseline(report, entries[:1])
        assert len(report.violations) == 1
        assert len(report.baselined) == 1

    def test_missing_baseline_is_empty(self, tmp_path):
        assert load_baseline(str(tmp_path / "absent.json")) == []

    def test_malformed_baseline_raises(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"entries": "nope"}')
        with pytest.raises(ValueError):
            load_baseline(str(bad))


# ----------------------------------------------------------------------
# BRS010 — RNG-stream provenance
# ----------------------------------------------------------------------
class TestStreamProvenance:
    def run(self, tmp_path, files):
        root = write_tree(tmp_path, files)
        return lint_paths([root], select=["BRS010"]).violations

    def test_registered_streams_clean(self, tmp_path):
        found = self.run(
            tmp_path,
            {
                "repro/sim/rng.py": RNG_MODULE,
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
                "repro/sim/rng.py": RNG_MODULE,
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
                "repro/sim/rng.py": RNG_MODULE,
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

    def test_shared_with_reason_clean(self, tmp_path):
        found = self.run(
            tmp_path,
            {
                "repro/sim/rng.py": """
                    STREAMS = {
                        "alpha": StreamSpec(
                            owner="repro.core",
                            shared=("repro.net",),
                            reason="one logical workload stream by design",
                        ),
                    }
                """,
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

    def test_shared_without_reason_fires(self, tmp_path):
        found = self.run(
            tmp_path,
            {
                "repro/sim/rng.py": """
                    STREAMS = {
                        "alpha": StreamSpec(
                            owner="repro.core",
                            shared=("repro.net",),
                        ),
                    }
                """,
                "repro/core/owner.py": """
                    def go(rng):
                        return rng.stream("alpha")
                """,
            },
        )
        assert codes(found) == ["BRS010"]
        assert "no reason" in found[0].message

    def test_stale_registration_fires(self, tmp_path):
        found = self.run(
            tmp_path,
            {
                "repro/sim/rng.py": """
                    STREAMS = {
                        "alpha": StreamSpec(owner="repro.core"),
                        "ghost": StreamSpec(owner="repro.core"),
                    }
                """,
                "repro/core/use.py": """
                    def go(rng):
                        return rng.stream("alpha")
                """,
            },
        )
        assert codes(found) == ["BRS010"]
        assert "ghost" in found[0].message and "stale" in found[0].message

    def test_wildcard_entry_covers_fstring(self, tmp_path):
        found = self.run(
            tmp_path,
            {
                "repro/sim/rng.py": """
                    STREAMS = {
                        "churn.*": StreamSpec(owner="repro.core"),
                    }
                """,
                "repro/core/use.py": """
                    def go(rng, rate):
                        return rng.stream(f"churn.{rate}")
                """,
            },
        )
        assert found == []

    def test_literal_flows_through_stream_param(self, tmp_path):
        found = self.run(
            tmp_path,
            {
                "repro/sim/rng.py": RNG_MODULE,
                "repro/workloads/gen.py": """
                    def draw(rng, stream="alpha"):
                        return rng.stream(stream)
                """,
                "repro/core/use.py": """
                    from repro.workloads.gen import draw

                    def go(rng):
                        return draw(rng, "sneaky")
                """,
            },
        )
        # "alpha" (default) is fine but "sneaky" at the call site is not
        # — and also not registered at all, plus the workloads default
        # draws "alpha" from repro.workloads (not the owner).
        assert codes(found) == ["BRS010"]
        assert any("sneaky" in v.message for v in found)

    def test_missing_registry_reported(self, tmp_path):
        found = self.run(
            tmp_path,
            {
                "repro/sim/rng.py": "x = 1\n",
                "repro/core/use.py": """
                    def go(rng):
                        return rng.stream("alpha")
                """,
            },
        )
        assert codes(found) == ["BRS010"]
        assert "must define" in found[0].message


# ----------------------------------------------------------------------
# BRS011 — transitive purity, with chains
# ----------------------------------------------------------------------
class TestTransitivePurity:
    def test_transitive_wallclock_fires_with_chain(self, tmp_path):
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
        found = lint_paths([root], select=["BRS011"]).violations
        assert codes(found) == ["BRS011"]
        v = found[0]
        assert v.path.endswith("driver.py")
        assert v.chain is not None and len(v.chain) == 3
        assert "tick()" in v.chain[0]
        assert "slow_now()" in v.chain[1]
        assert v.chain[-1].endswith("time.time")
        # The chain renders as indented hops and lands in the JSON dict.
        rendered = v.render()
        assert rendered.count("\n") == 3
        assert v.as_dict()["chain"] == list(v.chain)

    def test_direct_wallclock_left_to_brs002(self, tmp_path):
        # A wall-clock read *inside* a virtual-time module is the
        # per-file rule's finding; BRS011 only reports the chain at the
        # scope-crossing edge, so the two never double-report one sink.
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
        found = lint_paths([root], select=["BRS002", "BRS011"]).violations
        assert codes(found) == ["BRS002"]

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
        assert lint_paths([root], select=["BRS011"]).violations == []

    def test_suppression_at_sink_silences_chain(self, tmp_path):
        root = write_tree(
            tmp_path,
            {
                "repro/sim/helper.py": """
                    import time

                    def slow_now():
                        return time.time()  # repro-lint: disable=BRS011 wall time feeds a log label only
                """,
                "repro/core/driver.py": """
                    from repro.sim.helper import slow_now

                    def tick():
                        return slow_now()
                """,
            },
        )
        assert lint_paths([root], select=["BRS011"]).violations == []

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
        found = lint_paths([root], select=["BRS011"]).violations
        assert codes(found) == ["BRS011"]
        v = found[0]
        assert "global" in v.message
        assert v.chain is not None and "_point()" in v.chain[0]


# ----------------------------------------------------------------------
# BRS012 — metric-name consistency
# ----------------------------------------------------------------------
class TestMetricConsistency:
    def run(self, tmp_path, files):
        root = write_tree(tmp_path, files)
        return lint_paths([root], select=["BRS012"]).violations

    def test_registered_emit_clean(self, tmp_path):
        found = self.run(
            tmp_path,
            {
                "repro/sim/metrics.py": METRICS_MODULE,
                "repro/core/emit.py": """
                    def bump(metrics):
                        metrics.counter("ops.count").inc()
                """,
            },
        )
        assert found == []

    def test_unregistered_emit_fires(self, tmp_path):
        found = self.run(
            tmp_path,
            {
                "repro/sim/metrics.py": METRICS_MODULE,
                "repro/core/emit.py": """
                    def bump(metrics):
                        metrics.counter("ops.count").inc()
                        metrics.counter("rogue.count").inc()
                """,
            },
        )
        assert codes(found) == ["BRS012"]
        assert "rogue.count" in found[0].message

    def test_kind_mismatch_fires(self, tmp_path):
        found = self.run(
            tmp_path,
            {
                "repro/sim/metrics.py": METRICS_MODULE,
                "repro/core/emit.py": """
                    def bump(metrics):
                        metrics.histogram("ops.count").observe(1.0)
                """,
            },
        )
        assert codes(found) == ["BRS012"]
        assert "histogram" in found[0].message

    def test_dangling_consumer_fires(self, tmp_path):
        found = self.run(
            tmp_path,
            {
                "repro/sim/metrics.py": METRICS_MODULE,
                "repro/core/emit.py": """
                    def bump(metrics):
                        metrics.counter("ops.count").inc()
                """,
                "repro/experiments/read.py": """
                    def snapshot(metrics):
                        return metrics.counter("never.emitted").value
                """,
            },
        )
        assert codes(found) == ["BRS012"]
        assert "never.emitted" in found[0].message

    def test_consumer_with_live_emitter_clean(self, tmp_path):
        found = self.run(
            tmp_path,
            {
                "repro/sim/metrics.py": METRICS_MODULE,
                "repro/core/emit.py": """
                    def bump(metrics):
                        metrics.counter("ops.count").inc()
                """,
                "repro/experiments/read.py": """
                    def snapshot(metrics):
                        return metrics.counter("ops.count").value
                """,
            },
        )
        assert found == []

    def test_wildcard_emitter_covers_consumer(self, tmp_path):
        found = self.run(
            tmp_path,
            {
                "repro/sim/metrics.py": """
                    METRIC_NAMES = {
                        "messages.*": "counter",
                    }
                """,
                "repro/core/emit.py": """
                    def bump(metrics, kind):
                        metrics.counter(f"messages.{kind}").inc()
                """,
                "repro/experiments/read.py": """
                    def snapshot(metrics):
                        return metrics.counter("messages.advertise").value
                """,
            },
        )
        assert found == []

    def test_stale_registry_entry_fires(self, tmp_path):
        found = self.run(
            tmp_path,
            {
                "repro/sim/metrics.py": """
                    METRIC_NAMES = {
                        "ops.count": "counter",
                        "dead.metric": "counter",
                    }
                """,
                "repro/core/emit.py": """
                    def bump(metrics):
                        metrics.counter("ops.count").inc()
                """,
            },
        )
        assert codes(found) == ["BRS012"]
        assert "dead.metric" in found[0].message


# ----------------------------------------------------------------------
# BRS013 — columnar ownership
# ----------------------------------------------------------------------
class TestColumnarOwnership:
    def run(self, tmp_path, files):
        root = write_tree(tmp_path, files)
        return lint_paths([root], select=["BRS013"]).violations

    def test_mutation_outside_kernel_fires(self, tmp_path):
        found = self.run(
            tmp_path,
            {
                "repro/sim/columnar.py": COLUMNAR_MODULE,
                "repro/core/meddler.py": """
                    from repro.sim.columnar import ColumnarStore

                    def clobber():
                        table = ColumnarStore()
                        table.expiry = None
                """,
            },
        )
        assert codes(found) == ["BRS013"]
        assert "expiry" in found[0].message

    def test_subscript_store_fires(self, tmp_path):
        found = self.run(
            tmp_path,
            {
                "repro/sim/columnar.py": COLUMNAR_MODULE,
                "repro/core/meddler.py": """
                    def clobber(store):
                        store.keys[0] = 7
                """,
            },
        )
        assert codes(found) == ["BRS013"]

    def test_mutation_inside_kernel_clean(self, tmp_path):
        found = self.run(
            tmp_path,
            {
                "repro/sim/columnar.py": COLUMNAR_MODULE
                + """
    def rebuild(store):
        store.keys = []
""",
            },
        )
        assert found == []

    def test_unowned_attr_clean(self, tmp_path):
        found = self.run(
            tmp_path,
            {
                "repro/sim/columnar.py": COLUMNAR_MODULE,
                "repro/core/fine.py": """
                    def ok(store):
                        store.note = "hello"
                """,
            },
        )
        assert found == []

    def test_non_columnar_receiver_clean(self, tmp_path):
        found = self.run(
            tmp_path,
            {
                "repro/sim/columnar.py": COLUMNAR_MODULE,
                "repro/core/fine.py": """
                    def ok(space):
                        space.keys = []
                """,
            },
        )
        assert found == []


# ----------------------------------------------------------------------
# Meta: catalogue and report schema
# ----------------------------------------------------------------------
class TestCatalogue:
    def test_thirteen_rules(self):
        """Thirteen codes were issued; BRS007 is retired, twelve remain."""
        assert sorted(RULES) == [f"BRS{n:03d}" for n in range(1, 10) if n != 7]
        assert sorted(PROJECT_RULES) == [
            "BRS010",
            "BRS011",
            "BRS012",
            "BRS013",
        ]
        for code, rule in PROJECT_RULES.items():
            assert rule.code == code
            assert rule.scope == "project"
            assert rule.name and rule.summary

    def test_list_rules_json_catalogue(self, capsys):
        assert lint_main(["--list-rules", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "repro-lint-rules"
        codes_listed = [r["code"] for r in payload["rules"]]
        assert codes_listed == sorted(codes_listed)
        assert len(codes_listed) == 12
        scopes = {r["code"]: r["scope"] for r in payload["rules"]}
        assert scopes["BRS001"] == "file"
        assert scopes["BRS011"] == "project"

    def test_report_schema_v2_fields(self, tmp_path):
        root = write_tree(tmp_path, {"repro/mod.py": "x = 1\n"})
        report = lint_paths([root])
        payload = report_as_dict(report)
        assert payload["schema_version"] == REPORT_SCHEMA_VERSION == 2
        assert set(payload["rule_timings"]) >= set(PROJECT_RULES)
        assert payload["cache"] == {"hits": 0, "misses": 1}

    def test_output_creates_parent_dirs(self, tmp_path, capsys):
        target = tmp_path / "deep" / "nested" / "report.json"
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        assert (
            lint_main(
                [str(clean), "--no-cache", "--output", str(target)]
            )
            == 0
        )
        capsys.readouterr()
        assert json.loads(target.read_text())["schema_version"] == 2

    def test_cli_baseline_ratchet_flow(self, tmp_path, capsys):
        root = write_tree(tmp_path, TestBaseline.BAD)
        baseline = tmp_path / "baseline.json"
        bad_args = [root, "--no-cache", "--baseline", str(baseline)]
        assert lint_main(bad_args) == 1  # violations, empty baseline
        assert lint_main(bad_args + ["--write-baseline"]) == 0
        assert lint_main(bad_args) == 0  # now excused
        out = capsys.readouterr().out
        assert "baselined" in out

    def test_cli_write_baseline_requires_baseline(self, tmp_path, capsys):
        assert lint_main(["--write-baseline", str(tmp_path)]) == 2
        capsys.readouterr()

    def test_cli_cache_flag(self, tmp_path, capsys):
        root = write_tree(tmp_path, {"repro/mod.py": "x = 1\n"})
        cache = tmp_path / "cache.json"
        assert lint_main([root, "--cache", str(cache)]) == 0
        assert lint_main([root, "--cache", str(cache)]) == 0
        out = capsys.readouterr().out
        assert "[cache 1 hit / 0 miss]" in out
