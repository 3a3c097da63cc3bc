"""Smoke-scale tests of the benchmark itself.

    python -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import run, workloads
from perfbench.layers import PER_LAYER, SpanRecorder

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = ["wall_s", "setup_s", "peak_rss_mb"]


def _cli(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    for metric in result["metrics"].values():
        assert set(metric) == {"value", "unit"}
        assert isinstance(metric["value"], (int, float))
    return result


def test_spec_matches_the_benchmark_tables():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()
    ]
    assert [m["name"] for m in SPEC["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        (name, unit, better) for name, unit, better, _moves in PER_LAYER
    ]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_timing_run_reports_end_to_end_metrics(name):
    result = _result(_cli("--workload", name, "--seed", "3", "--seconds", "0",
                          "--trace", "0", "--scale", "smoke"))
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_per_layer_metric():
    result = _result(_cli("--workload", "trace_roundtrip", "--seed", "0",
                          "--seconds", "0", "--trace", "1", "--scale", "smoke"))
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    assert metrics["entk.tasks_done"]["value"] == workloads.SCALES["smoke"]["tasks"]
    assert metrics["obs.spill_records"]["value"] >= metrics["obs.spans"]["value"] > 0
    assert metrics["load.self_s"]["value"] > 0


def test_untraced_workload_reads_zero_obs():
    result = _result(_cli("--workload", "shard_storm", "--seconds", "0",
                          "--trace", "1", "--scale", "smoke"))
    metrics = result["metrics"]
    for name in ("obs.self_s", "obs.spans", "obs.metric_records"):
        assert metrics[name]["value"] == 0, name
    assert metrics["jaws.shards"]["value"] == workloads.SCALES["smoke"]["shards"]


def test_wrong_pin_counts_every_operation_as_failed():
    result, info = run.timed_run("shard_storm", 0, 0, scale="smoke",
                                 pins={"shards": 299}, probes=1)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= run.MIN_ITERATIONS
    assert any("pinned 299" in m for m in info["mismatches"])


def test_pins_hold_only_for_the_default_seed():
    # One-minute shards: consistent, but not the default seed's outputs.
    out = {"succeeded": True, "shards": 10_000, "makespan_s": 40 * 165.0,
           "shard_s": 165.0, "events": 1}
    assert workloads.check("shard_storm", out, 1, "full") == []
    assert workloads.check("shard_storm", out, workloads.DEFAULT_SEED, "full")


def test_span_self_time_excludes_children():
    spans = SpanRecorder()
    spans.spans = [["root", 0.0, 10.0, None], ["a", 1.0, 4.0, 0],
                   ["b", 2.0, 3.0, 1], ["a", 5.0, 6.0, 0]]
    assert spans.self_times() == {"root": 6.0, "a": 3.0, "b": 1.0}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _cli("--workload", "shard_storm", "--seed", "0", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
