"""End-to-end telemetry tests: sessions, operation metrics, spans,
profiler phases, run manifests, and the CLI wiring."""

from __future__ import annotations

import json
import time

import pytest

from repro.core import BristleConfig, BristleNetwork, BristleProtocol
from repro.core.routing import route_preferring_resolved, route_with_resolution
from repro.experiments.io import manifest_path_for, write_manifest
from repro.experiments.manifest import (
    MANIFEST_KIND,
    ManifestError,
    build_manifest,
    peak_rss_kb,
    validate_manifest,
)
from repro.experiments.report import resolve_experiment_name
from repro.sim import (
    PhaseProfiler,
    Telemetry,
    Tracer,
    active_telemetry,
    read_jsonl,
    telemetry_session,
)


def _tiny_net(**kwargs):
    cfg = BristleConfig(seed=7, naming="clustered", **kwargs)
    return BristleNetwork(cfg, num_stationary=60, num_mobile=40, router_count=100)


class TestSession:
    def test_no_session_by_default(self):
        assert active_telemetry() is None

    def test_session_push_pop(self):
        tel = Telemetry()
        with telemetry_session(tel) as active:
            assert active is tel
            assert active_telemetry() is tel
        assert active_telemetry() is None

    def test_sessions_nest_innermost_wins(self):
        outer, inner = Telemetry(), Telemetry()
        with telemetry_session(outer):
            with telemetry_session(inner):
                assert active_telemetry() is inner
            assert active_telemetry() is outer

    def test_session_survives_exceptions(self):
        with pytest.raises(RuntimeError):
            with telemetry_session():
                raise RuntimeError("boom")
        assert active_telemetry() is None

    def test_network_joins_active_session(self):
        tel = Telemetry()
        with telemetry_session(tel):
            net = _tiny_net()
        assert net.telemetry is tel
        assert tel.network_count == 1
        note = tel.networks[0]
        assert note["seed"] == 7
        assert note["num_stationary"] == 60
        assert note["config"]["naming"] == "clustered"

    def test_network_outside_session_gets_private_disabled_telemetry(self):
        net = _tiny_net()
        assert active_telemetry() is None
        assert net.telemetry.tracing is False
        assert net.telemetry.metrics.counter("op.update.count").value == 0


class TestOperationMetrics:
    def test_move_counters_exact(self):
        net = _tiny_net()
        net.setup_random_registrations()
        m = net.telemetry.metrics
        reports = [net.move(k) for k in net.mobile_keys[:5]]
        assert m.counter("op.update.count").value == 5
        assert m.counter("op.update.publish_messages").value == sum(
            len(r.publish_holders) for r in reports
        )
        totals = m.histogram("op.update.total_messages")
        assert len(totals) == 5
        assert totals.total() == sum(r.total_messages for r in reports)

    def test_discover_counters_exact(self):
        net = _tiny_net()
        net.setup_random_registrations()
        m = net.telemetry.metrics
        src = net.stationary_keys[0]
        results = [net.discover(src, mk) for mk in net.mobile_keys[:3]]
        assert m.counter("op.discover.count").value == 3
        hops = m.histogram("discovery.hops")
        assert len(hops) == 3
        assert hops.total() == sum(r.hop_count for r in results)

    def test_join_and_leave_counters(self):
        net = _tiny_net()
        m = net.telemetry.metrics
        k = 3
        while k in net.nodes:
            k += 1
        net.join_mobile_node(k)
        assert m.counter("op.join.count").value == 1
        assert m.counter("overlay.mobile.add_node").value == 1
        assert len(m.histogram("op.join.registrations")) == 1
        net.leave_mobile_node(k)
        assert m.counter("op.leave.count").value == 1
        assert m.counter("overlay.mobile.remove_node").value == 1

    def test_route_counters_exact(self):
        net = _tiny_net()
        m = net.telemetry.metrics
        src, dst = net.stationary_keys[0], net.stationary_keys[-1]
        traces = [route_with_resolution(net, src, dst) for _ in range(4)]
        assert m.counter("route.count").value == 4
        app_hops = m.histogram("route.app_hops")
        assert len(app_hops) == 4
        assert app_hops.total() == sum(t.app_hops for t in traces)

    def test_stale_route_records_detour_metrics(self):
        net = _tiny_net(p_stale=1.0)
        net.setup_random_registrations()
        for mk in net.mobile_keys:
            net.move(mk)
        m = net.telemetry.metrics
        src = net.stationary_keys[0]
        trace = route_with_resolution(net, src, net.mobile_keys[0])
        if trace.resolutions:
            assert len(m.histogram("discovery.detour_cost")) >= 1
            assert len(m.histogram("discovery.detour_hops")) >= 1
        assert len(m.histogram("route.resolutions")) >= 1

    def test_ldt_metrics_on_advertise(self):
        net = _tiny_net()
        net.setup_random_registrations()
        mk = next(k for k in net.mobile_keys if net.nodes[k].registry)
        tree = net.build_ldt_for(mk)
        m = net.telemetry.metrics
        assert m.counter("ldt.built").value == 1
        assert m.histogram("ldt.depth").samples[0] == tree.depth
        assert len(m.histogram("ldt.fanout")) >= 1


class TestTracedOperations:
    def test_operation_spans_close(self):
        """Every ``span_begin`` site closes its span: after each operation
        no span is open and exactly one span of that operation's name
        (or, for ``route``, one more) has been recorded."""
        tel = Telemetry(tracer=Tracer())
        with telemetry_session(tel):
            net = _tiny_net()
            net.setup_random_registrations()
            proto = BristleProtocol(net)
            mobile, stationary = net.mobile_keys, net.stationary_keys
            newcomer = next(k for k in range(3, 1 << 16) if k not in net.nodes)
            ops = [
                ("op.update", lambda: net.move(mobile[0])),
                ("op.update_many", lambda: net.move_many(mobile[1:4])),
                ("op.join", lambda: net.join_mobile_node(newcomer)),
                ("op.leave", lambda: net.leave_mobile_node(newcomer)),
                ("route", lambda: route_with_resolution(net, stationary[0], mobile[5])),
                ("route", lambda: route_preferring_resolved(net, stationary[1], mobile[6])),
                ("protocol.advertise", lambda: proto.advertise(mobile[7])),
                ("protocol.advertise_many", lambda: proto.advertise_many(mobile[8:11])),
                ("protocol.discover", lambda: proto.discover(stationary[2], mobile[12])),
            ]
            tracer = tel.tracer
            for name, op in ops:
                before = len(tracer.spans(name))
                op()
                net.engine.run()
                assert tracer.open_span_count() == 0, name
                assert len(tracer.spans(name)) == before + 1, name
        assert len(tracer.spans("route")) == 2
        update = tracer.spans("op.update")[0]
        assert update.get("total_messages") is not None
        assert update.get("wall_s") >= 0.0

    def test_tracing_enables_update_path_cost(self):
        tel = Telemetry(tracer=Tracer())
        with telemetry_session(tel):
            net = _tiny_net()
            net.move(net.mobile_keys[0])
        assert len(tel.metrics.histogram("op.update.path_cost")) == 1
        # Untraced networks skip the oracle-read accounting entirely.
        net2 = _tiny_net()
        net2.move(net2.mobile_keys[0])
        assert len(net2.telemetry.metrics.histogram("op.update.path_cost")) == 0

    def test_disabled_tracer_overhead_smoke(self):
        t = Tracer(enabled=False)
        t0 = time.perf_counter()
        for i in range(100_000):
            t.emit(0.0, "e", i=i)
            t.span_end(0.0, t.span_begin(0.0, "s"))
        assert time.perf_counter() - t0 < 2.0
        assert len(t) == 0


class TestPhaseProfiler:
    def test_phases_accumulate(self):
        p = PhaseProfiler()
        with p.phase("build"):
            pass
        with p.phase("build"):
            pass
        with p.phase("route"):
            pass
        assert p.counts() == {"build": 2, "route": 1}
        assert set(p.wall_times()) == {"build", "route"}
        assert p.total() >= 0.0

    def test_footer_line_orders_and_skips_unknown(self):
        p = PhaseProfiler()
        p.add("route", 1.25)
        p.add("build", 0.5)
        line = p.footer_line(("build", "route", "missing"))
        assert line == "phases: build 0.500s, route 1.250s"

    def test_footer_line_empty(self):
        assert PhaseProfiler().footer_line() == "phases: (none recorded)"

    def test_footer_line_since_reports_the_gain(self):
        """Phases untouched after ``since`` drop out; the rest report the
        time they gained."""
        p = PhaseProfiler()
        p.add("build", 0.5)
        p.add("measure", 2.0)
        since = p.wall_times()
        p.add("build", 0.25)
        p.add("route", 1.0)
        assert p.footer_line(since=since) == "phases: build 0.250s, route 1.000s"
        assert p.footer_line(("measure",), since=since) == "phases: (none recorded)"

    def test_disabled_profiler_is_noop(self):
        p = PhaseProfiler(enabled=False)
        with p.phase("x"):
            pass
        p.add("y", 5.0)
        assert p.wall_times() == {}


class TestManifest:
    def _run_session(self):
        tel = Telemetry()
        with telemetry_session(tel):
            net = _tiny_net()
            with tel.profiler.phase("build"):
                net.setup_random_registrations()
            net.move(net.mobile_keys[0])
        return tel

    def test_build_and_validate(self):
        tel = self._run_session()
        payload = build_manifest(
            experiments=["fig7"], scale="quick", telemetry=tel, argv=["run", "fig7"]
        )
        assert validate_manifest(payload) is payload
        assert payload["kind"] == MANIFEST_KIND
        assert payload["seed"] == 7
        assert payload["config"]["naming"] == "clustered"
        assert payload["operation_counters"]["op.update.count"] == 1
        assert "build" in payload["phase_wall_times"]
        assert payload["network_count"] == 1

    def test_manifest_is_strict_json(self):
        tel = self._run_session()
        # An empty histogram snapshots to NaN — must become null, and the
        # document must dump under allow_nan=False.
        tel.metrics.histogram("never.observed")
        payload = build_manifest(experiments=["fig7"], scale="quick", telemetry=tel)
        assert payload["metrics"]["never.observed.mean"] is None
        json.dumps(payload, allow_nan=False)

    def test_validate_lists_every_problem(self):
        with pytest.raises(ManifestError) as exc:
            validate_manifest({"kind": "wrong", "experiments": []})
        msg = str(exc.value)
        for fragment in ("kind", "experiments", "scale", "seed", "metrics"):
            assert fragment in msg

    def test_validate_rejects_non_numeric_metric(self):
        tel = self._run_session()
        payload = build_manifest(experiments=["fig7"], scale="quick", telemetry=tel)
        payload["phase_wall_times"]["build"] = "fast"
        with pytest.raises(ManifestError, match="phase_wall_times"):
            validate_manifest(payload)

    def test_write_manifest_round_trip(self, tmp_path):
        tel = self._run_session()
        payload = build_manifest(experiments=["fig7"], scale="quick", telemetry=tel)
        path = str(tmp_path / "run.manifest.json")
        write_manifest(payload, path)
        with open(path) as fh:
            loaded = json.load(fh)
        assert validate_manifest(loaded)["seed"] == 7

    def test_write_manifest_validates_first(self, tmp_path):
        with pytest.raises(ManifestError):
            write_manifest({"kind": "nope"}, str(tmp_path / "bad.json"))

    def test_manifest_path_for(self):
        assert manifest_path_for("out/report.txt") == "out/report.manifest.json"
        assert manifest_path_for("report") == "report.manifest.json"


class TestExperimentAliases:
    def test_registry_names_pass_through(self):
        assert resolve_experiment_name("fig7") == "fig7"

    def test_driver_module_aliases(self):
        assert resolve_experiment_name("fig7_naming") == "fig7"
        assert resolve_experiment_name("fig9_locality") == "fig9"
        assert resolve_experiment_name("table1_comparison") == "table1"

    def test_underscore_spelling_of_dashed_names(self):
        assert resolve_experiment_name("ext_staleness") == "ext-staleness"

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            resolve_experiment_name("fig99")


class TestCliTelemetry:
    def test_run_with_trace_and_metrics(self, tmp_path, capsys):
        from repro.cli import main

        trace = str(tmp_path / "t.jsonl")
        metrics = str(tmp_path / "m.json")
        rc = main(
            ["run", "fig3", "--trace", trace, "--metrics", metrics, "--profile"]
        )
        assert rc == 0
        records = read_jsonl(trace)
        assert any(r.get("name") == "experiment" for r in records)
        with open(metrics) as fh:
            manifest = validate_manifest(json.load(fh))
        assert manifest["experiments"] == ["fig3"]
        assert "experiment:fig3" in manifest["phase_wall_times"]
        assert manifest["trace_file"] == trace
        out = capsys.readouterr().out
        assert "[profile]" in out

    def test_run_rejects_unknown_experiment(self, capsys):
        from repro.cli import main

        assert main(["run", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err


class TestManifestV4:
    def test_build_manifest_carries_peak_rss(self):
        telemetry = Telemetry()
        payload = build_manifest(
            experiments=["ext-scale-churn"], scale="quick", telemetry=telemetry
        )
        assert payload["schema_version"] >= 4
        validate_manifest(payload)
        rss = payload["peak_rss_kb"]
        assert rss is None or (isinstance(rss, int) and rss > 0)

    def test_peak_rss_helper_positive_on_posix(self):
        rss = peak_rss_kb()
        assert rss is None or rss > 0

    def test_validator_rejects_bad_rss(self):
        telemetry = Telemetry()
        payload = build_manifest(
            experiments=["x"], scale="quick", telemetry=telemetry
        )
        payload["peak_rss_kb"] = -3
        with pytest.raises(ManifestError, match="peak_rss_kb"):
            validate_manifest(payload)
        payload["peak_rss_kb"] = True
        with pytest.raises(ManifestError, match="peak_rss_kb"):
            validate_manifest(payload)
        payload["peak_rss_kb"] = None
        validate_manifest(payload)
