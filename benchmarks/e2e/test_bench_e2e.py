"""Self-test of bench_e2e on the smoke size (300 + 150 nodes, 2 blocks).

Not part of tier-1 (``testpaths = ["tests"]``); run it with

    python -m pytest benchmarks/e2e/test_bench_e2e.py -o addopts=""
"""

from __future__ import annotations

import dataclasses
import json
import re

import numpy as np
import pytest

import bench_e2e
from bench_e2e import SPEC, Harness, main, run_traced, set_up
from workloads import WORKLOADS, smoke

BLOCKS = 2


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_names_are_the_benchmark_json_names(
    trace, section, capsys, tmp_path, monkeypatch
):
    monkeypatch.setattr(bench_e2e, "RESULTS", tmp_path)
    status = main(["--workload", "churn", "--scale", "smoke", "--trace", str(trace)])
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert status == 0 and result["correct"] and result["failed"] == 0
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    names = [m["name"] for m in SPEC[section]]
    assert list(result["metrics"]) == names
    assert all(re.fullmatch(r"[A-Za-z0-9_.-]+", n) for n in names)
    printed = [ln.split() for ln in lines if ln.startswith("churn ")]
    assert [p[1] for p in printed] == names + ["failed_ops_share"]
    assert [p[3] for p in printed[:-1]] == [m["unit"] for m in SPEC[section]]


def test_every_per_layer_name_is_measured_somewhere():
    """A name no workload ever produces would silently read 0."""
    produced = set()
    for workload in WORKLOADS.values():
        _, values, _ = run_traced(smoke(workload), 1, blocks=BLOCKS)
        produced |= values.keys()
    assert {m["name"] for m in SPEC["per_layer"]} <= produced


def test_every_per_layer_name_says_what_it_should_move():
    layer_map = json.loads((bench_e2e.HERE / "layer_map.json").read_text())
    metrics = {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["per_layer"]:
        for target in bench_e2e.should_move(m["name"], layer_map):
            metric, workload = target.split("@")
            assert metric in metrics and workload in WORKLOADS, (m["name"], target)


def _digest(seed: int) -> str:
    workload = smoke(WORKLOADS["mobility"])
    harness = Harness(workload, seed, set_up(workload, seed)[0])
    harness.run_blocks(BLOCKS)
    assert harness.failed == 0, harness.first_failure
    return harness.digest()


def test_same_seed_same_digest():
    assert _digest(1) == _digest(1)
    assert _digest(1) != _digest(2)


def test_traced_run_spans_nest_and_bindings_are_restored():
    from repro.core import bristle as facade

    names = ("build_ldt", "build_ldt_forest", "generate_transit_stub", "make_overlay")
    before = [getattr(facade, n) for n in names]
    harness, values, rec = run_traced(smoke(WORKLOADS["mobility"]), 1, blocks=BLOCKS)
    assert [getattr(facade, n) for n in names] == before
    assert harness.failed == 0, harness.first_failure

    c = rec.columns()
    assert rec.self_ns().min() >= 0
    assert rec.self_ns().sum() / 1e9 <= values["trace.wall_s"]
    child = np.flatnonzero(c["parent"] >= 0)
    parent = c["parent"][child]
    assert (c["start"][parent] <= c["start"][child]).all()
    assert (c["end"][child] <= c["end"][parent]).all()
    # All spans of one public op carry that op's id.
    assert (c["op"][child] == c["op"][parent]).all()
    roots = np.flatnonzero(c["parent"] < 0)
    assert (c["op"][roots] == roots).all()


def test_wrong_expectation_counts_as_failed():
    workload = smoke(WORKLOADS["lookup"])
    harness = Harness(workload, 1, set_up(workload, 1)[0])
    harness.run_block()
    assert harness.failed == 0, harness.first_failure
    for key, addr in harness.address.items():
        harness.address[key] = dataclasses.replace(addr, router=addr.router + 1)
    harness.run_block()
    assert harness.failed > workload.discovers // 2
    assert "unexpected result" in harness.first_failure
