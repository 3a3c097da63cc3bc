"""Tests for :mod:`repro.report`: report assembly, verdict files, CLI."""

import json
import os
import subprocess
import sys

import pytest

from repro.obs.alerts import Rule
from repro.obs.export import write_jsonl
from repro.report import VERDICT_VERSION, RunReport, build_report, write_verdict
from repro.report.__main__ import main
from repro.report.scenarios import SCALES, SCENARIOS

from tests.obs.minirun import mini_entk_run

RULES = [
    Rule("utilization >= 0.85", severity="critical"),
    Rule("failed_tasks <= 0", severity="critical"),
    Rule("p99(entk.exec) <= 1800", severity="warning"),
]


@pytest.fixture(scope="module")
def mini():
    profile, tracer = mini_entk_run()
    return profile, tracer


@pytest.fixture(scope="module")
def mini_report(mini):
    profile, tracer = mini
    return build_report(
        "T1",
        tracer,
        title="mini E2",
        headline={"utilization": profile.core_utilization},
        rules=RULES,
    )


class TestBuildReport:
    def test_phase_totals_sum_to_job_runtime(self, mini, mini_report):
        """The ISSUE acceptance criterion: report phase durations sum
        to the job runtime (the pilot-job window), OVH matches Fig 4."""
        profile, _ = mini
        cp = mini_report.critical_path
        assert sum(cp.phase_totals().values()) == pytest.approx(
            profile.job_runtime, abs=1e-6
        )
        assert cp.phase_totals()["bootstrap"] == pytest.approx(85.0)
        assert mini_report.overheads.ovh == pytest.approx(85.0)

    def test_window_defaults_to_the_pilot_job(self, mini, mini_report):
        profile, _ = mini
        t0, t1 = mini_report.window
        assert t1 - t0 == pytest.approx(profile.job_runtime)

    def test_headline_gains_overhead_scalars(self, mini_report):
        for key in ("ovh_s", "ttx_s", "job_runtime_s"):
            assert key in mini_report.headline

    def test_slo_verdict(self, mini_report):
        assert mini_report.ok and mini_report.status == "pass"
        assert all(o.ok for o in mini_report.alert_report.outcomes)

    def test_render_ascii_mentions_everything(self, mini_report):
        text = mini_report.render_ascii()
        assert "run report — T1: mini E2" in text
        assert "critical path" in text
        assert "overhead decomposition" in text
        assert "SLO rules" in text
        assert text.rstrip().endswith("verdict: PASS")

    def test_headline_only_report(self):
        report = build_report(
            "T2",
            headline={"speedup": 2.0},
            rules=[Rule("speedup >= 3", severity="critical")],
        )
        assert report.critical_path is None
        assert not report.ok and report.status == "fail"
        assert report.render_ascii().rstrip().endswith("verdict: FAIL")

    def test_report_without_rules_passes(self):
        report = build_report("T3", headline={"x": 1})
        assert report.alert_report is None and report.ok


class TestVerdictFile:
    def test_write_verdict_schema(self, mini_report, tmp_path):
        path = write_verdict(mini_report, tmp_path)
        assert path.name == "BENCH_T1.json"
        doc = json.loads(path.read_text())
        assert doc["version"] == VERDICT_VERSION
        assert doc["bench"] == "T1"
        assert doc["status"] == "pass"
        assert doc["alerts"]["ok"] is True
        cp = doc["critical_path"]
        assert sum(cp["phase_totals"].values()) == pytest.approx(cp["makespan"])
        assert "overheads" in doc
        json.dumps(doc)  # fully serializable

    def test_numpy_headline_values_serialize(self, tmp_path):
        import numpy as np

        report = build_report("T4", headline={"x": np.float64(1.5)})
        doc = json.loads(write_verdict(report, tmp_path).read_text())
        assert doc["headline"]["x"] == 1.5


class TestCli:
    @pytest.fixture(scope="class")
    def trace_file(self, tmp_path_factory):
        _, tracer = mini_entk_run()
        path = tmp_path_factory.mktemp("traces") / "mini.trace.jsonl"
        write_jsonl(tracer, path)
        return path

    def test_trace_mode_passes(self, trace_file, tmp_path, capsys):
        code = main(
            [str(trace_file), "--out", str(tmp_path), "--name", "MINI"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "run report — MINI" in out
        assert (tmp_path / "BENCH_MINI.json").exists()

    def test_violated_critical_rule_fails(self, trace_file, tmp_path, capsys):
        code = main(
            [
                str(trace_file),
                "--out", str(tmp_path),
                "--rule", "count(entk.exec) >= 100000",
            ]
        )
        assert code == 1
        doc = json.loads((tmp_path / "BENCH_mini.json").read_text())
        assert doc["status"] == "fail"

    def test_utilization_rule_resolves_on_bare_trace(
        self, trace_file, tmp_path
    ):
        # core_utilization is derived from the pilot's registry
        # trackers, so the README's example rule works post hoc.
        code = main(
            [
                str(trace_file),
                "--out", str(tmp_path),
                "--rule", "core_utilization >= 0.85",
            ]
        )
        assert code == 0

    def test_unresolvable_rule_is_a_clean_error(self, trace_file, tmp_path):
        assert main(
            [str(trace_file), "--out", str(tmp_path), "--rule", "nope <= 1"]
        ) == 2

    def test_warn_rule_does_not_gate(self, trace_file, tmp_path):
        code = main(
            [
                str(trace_file),
                "--out", str(tmp_path),
                "--warn", "count(entk.exec) >= 100000",
            ]
        )
        assert code == 0

    def test_json_output(self, trace_file, tmp_path, capsys):
        code = main([str(trace_file), "--out", str(tmp_path), "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == VERDICT_VERSION

    def test_list_scenarios(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for bench_id in SCENARIOS:
            assert bench_id in out

    def test_missing_trace_file(self, tmp_path):
        assert main([str(tmp_path / "nope.jsonl")]) == 2

    def test_no_input_errors(self):
        assert main([]) == 2

    def test_trace_and_bench_conflict(self, trace_file):
        assert main([str(trace_file), "--bench", "E2"]) == 2

    def test_bad_rule_expression(self, trace_file):
        assert main([str(trace_file), "--rule", "not a rule"]) == 2

    def test_bench_mode_reduced_e1(self, tmp_path, capsys):
        """E1 is the fastest scenario; run it end to end through the
        CLI and check the verdict contract CI relies on."""
        code = main(["--bench", "E1", "--out", str(tmp_path), "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["bench"] == "E1" and doc["status"] == "pass"
        assert (tmp_path / "BENCH_E1.json").exists()


class TestScenarioRegistry:
    def test_all_eight_registered(self):
        assert sorted(SCENARIOS) == [f"E{i}" for i in range(1, 9)]

    def test_scenarios_carry_titles(self):
        assert all(s.title for s in SCENARIOS.values())

    def test_every_scenario_defines_every_scale(self):
        for scenario in SCENARIOS.values():
            assert set(scenario.scales) == set(SCALES), scenario.bench_id

    def test_import_loads_no_workflow_system(self):
        # The registry is imported during set-up by report and benchmark
        # paths that run a single scenario; each build imports only the
        # system it drives.
        code = (
            "import sys, repro.report.scenarios\n"
            "print(sorted(m for m in sys.modules if m.split('.')[:2] in "
            "[['repro', p] for p in "
            "('atlas', 'jaws', 'llm', 'cws', 'entk', 'exaam', 'ckpt')]))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
        ).stdout
        assert out.strip() == "[]"
