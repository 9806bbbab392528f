"""BENCHMARK.json names exactly the workloads and metrics the benchmark emits."""

import json

from perfbench import runner, tracing, workloads

MANIFEST = json.loads((runner.ROOT / "BENCHMARK.json").read_text())


def test_workloads_match():
    assert [w["name"] for w in MANIFEST["workloads"]] == list(workloads.WORKLOADS)


def test_end_to_end_metrics_match():
    result = runner.RunResult(setup_s=[1.0], timings=[{"op_s": 2.0}], peak_rss_mb=3.0)
    emitted = {name: unit for name, (_, unit) in result.e2e_metrics().items()}
    assert {m["name"]: m["unit"] for m in MANIFEST["end_to_end"]} == emitted
    assert all(0 < m["bound"] <= 0.25 for m in MANIFEST["end_to_end"])


def test_per_layer_metrics_match():
    listed = [(m["name"], m["unit"], m["better"]) for m in MANIFEST["per_layer"]]
    metrics = tracing.LAYER_METRICS + tracing.OVERHEAD_METRICS
    assert listed == [(m.name, m.unit, m.better) for m in metrics]
