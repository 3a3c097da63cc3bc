"""The benchmark's four workloads: inputs from a seed, one iteration, its check.

Each workload is a :class:`Workload` with three functions:

``build(seed, scale, spans, tmp)``
    Generates the inputs from ``seed`` and builds the scenario up to the
    moment simulated time would start.  It imports every layer the
    workload uses, so its first call in a fresh process is the
    workload's set-up cost (``setup_s``).
``iterate(seed, scale, spans, tmp)``
    One operation: build, simulate, analyse, render, and return the
    output scalars the check compares.  ``wall_s`` times this call.
``invariants(out, scale)``
    Seed-independent facts about the outputs; a list of mismatch
    messages, empty when they hold.

Outputs of the default seed at full scale are pinned in :data:`PINS`;
any mismatch with a pin or an invariant fails the operation.

``spans`` is a :class:`perfbench.layers.SpanRecorder` (or the no-op
recorder in timing runs) that marks each call into a layer.  The
benchmark never reaches into the program's private state: every count
comes from public attributes or from the profiler.

Layers on no workload's path: atlas (E5/E6 take tens of milliseconds),
llm, ckpt, lint and sanitizer.  data and resilience are touched only in
passing (well under a millisecond of profiled self time), and viz only
to render reports, which the profiler counts under ``report``.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import shutil
from dataclasses import dataclass
from typing import Callable

#: The seed the pins below were taken with.
DEFAULT_SEED = 0

#: Scale parameters.  ``full`` is what the benchmark measures; ``smoke``
#: is for the benchmark's own tests.
SCALES = {
    "full": {"tasks": 7875, "nodes": 8000, "shards": 10_000, "site_nodes": 256,
             "mix_seeds": 3},
    "smoke": {"tasks": 200, "nodes": 200, "shards": 300, "site_nodes": 16,
              "mix_seeds": 1},
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable
    iterate: Callable
    invariants: Callable


# -- frontier_report / trace_roundtrip: E2 at paper scale -------------------------


def frontier_report_build(seed, scale, spans, tmp, sink=None):
    import numpy as np

    from repro.entk import AppManager, Pipeline, ResourceDescription, Stage
    from repro.entk.platforms import platform_cluster
    from repro.exaam import frontier_stage3_tasks
    from repro.obs import enable_tracing
    from repro.report import scenarios  # noqa: F401  imported as part of set-up
    from repro.rm import BatchScheduler
    from repro.simkernel import Environment

    p = SCALES[scale]
    with spans.span("build"):
        env = Environment()
        tracer = enable_tracing(env, sink=sink)
        cluster = platform_cluster(env, "frontier", nodes=p["nodes"])
        batch = BatchScheduler(env, cluster, backfill=False)
        am = AppManager(
            env, batch, ResourceDescription(nodes=p["nodes"], walltime_s=24 * 3600)
        )
        stage = Stage(name="exaconstit")
        stage.add_tasks(
            frontier_stage3_tasks(p["tasks"], rng=np.random.default_rng(seed))
        )
        pipeline = Pipeline(name="uq-stage3")
        pipeline.add_stage(stage)
        result = am.run([pipeline])
    return env, tracer, result


def _frontier_report(trace, result, scale, spans, tmp, stream):
    from repro.report import build_report
    from repro.report.scenarios import e2_rules

    nodes = SCALES[scale]["nodes"]
    prof = result.profiles[0]
    headline = {
        "tasks_done": prof.tasks_done,
        "core_utilization": prof.core_utilization,
        "gpu_utilization": prof.gpu_utilization,
        "ovh_s": prof.ovh,
        "ttx_s": prof.ttx,
        "job_runtime_s": prof.job_runtime,
    }
    with spans.span("report"):
        report = build_report(
            "E2",
            trace,
            title="Fig 4 — EnTK resource utilization on Frontier",
            headline=headline,
            rules=e2_rules(nodes),
            component="entk-pilot-0",
            straggler_category="entk.exec",
            idle_metric=("entk-pilot-0", "cores"),
            stream=stream,
        )
    return _render(report, spans, tmp), prof


def _render(report, spans, tmp):
    """Render the report and write its verdict; returns the verdict."""
    with spans.span("render"):
        text = report.render_ascii()
        verdict = report.to_verdict()
        with open(os.path.join(tmp, f"BENCH_{report.bench_id}.json"), "w") as fh:
            json.dump(verdict, fh, sort_keys=True)
    if not text.startswith("run report"):
        verdict = dict(verdict, status="unrendered")
    return verdict


def _frontier_outputs(env, prof, verdict, spans_n):
    return {
        "makespan_s": env.now,
        "tasks_done": prof.tasks_done,
        "task_failures": prof.tasks_failed_events,
        "spans": spans_n,
        "status": verdict["status"],
        "events": env.scheduled_events,
    }


def frontier_report_iterate(seed, scale, spans, tmp):
    env, tracer, result = frontier_report_build(seed, scale, spans, tmp)
    with spans.span("simulate"):
        env.run(until=result.done)
    verdict, prof = _frontier_report(tracer, result, scale, spans, tmp, stream=False)
    return _frontier_outputs(env, prof, verdict, len(tracer.spans))


def trace_roundtrip_build(seed, scale, spans, tmp):
    from repro.obs import JsonlSpillSink

    sink = JsonlSpillSink(os.path.join(tmp, "spill"))
    return frontier_report_build(seed, scale, spans, tmp, sink=sink)


def trace_roundtrip_iterate(seed, scale, spans, tmp):
    from repro.obs import StubTrace

    try:
        env, tracer, result = trace_roundtrip_build(seed, scale, spans, tmp)
        with spans.span("simulate"):
            env.run(until=result.done)
        with spans.span("sink.close"):
            tracer.close()
        sink = tracer.sink
        spill_bytes = sum(os.path.getsize(p) for p in sink.segments())
        with spans.span("load"), contextlib.ExitStack() as stack:
            files = [stack.enter_context(open(p)) for p in sink.segments()]
            trace = StubTrace.from_jsonl(itertools.chain.from_iterable(files))
        verdict, prof = _frontier_report(trace, result, scale, spans, tmp, stream=True)
    finally:
        shutil.rmtree(os.path.join(tmp, "spill"), ignore_errors=True)
    out = _frontier_outputs(env, prof, verdict, len(trace.spans))
    out["spill_records"] = sink.total_records
    out["spill_bytes"] = spill_bytes
    return out


def frontier_invariants(out, scale):
    n = SCALES[scale]["tasks"]
    bad = []
    if out["tasks_done"] != n:
        bad.append(f"tasks_done {out['tasks_done']} != {n}")
    if out["task_failures"] != 0:
        bad.append(f"task_failures {out['task_failures']} != 0")
    if out["status"] != "pass":
        bad.append(f"verdict {out['status']!r} != 'pass'")
    # Every task leaves at least its queue, launch and exec spans.
    if out["spans"] < 3 * n:
        bad.append(f"spans {out['spans']} < 3 x {n} tasks")
    if not out["makespan_s"] > 0:
        bad.append(f"makespan {out['makespan_s']} not positive")
    if "spill_records" in out and out["spill_records"] < out["spans"]:
        bad.append(
            f"spill_records {out['spill_records']} < spans {out['spans']}"
        )
    return bad


# -- shard_storm: one WDL task scattered 10,000 ways ------------------------------

_STORM_WDL = """
version 1.0
task align {{
    input {{ String sample }}
    command <<< run_align >>>
    output {{ String done = sample }}
    runtime {{ cpu: 4, runtime_minutes: {minutes}, docker: "jgi/align@sha256:{digest}" }}
}}
workflow storm {{
    input {{ Array[String] samples }}
    scatter (s in samples) {{
        call align {{ input: sample = s }}
    }}
}}
"""

#: Per-shard engine overheads (container start, staging), in seconds.
_CONTAINER_START_S, _STAGE_OVERHEAD_S = 45.0, 60.0


def shard_storm_build(seed, scale, spans, tmp):
    import numpy as np

    from repro.cluster import Cluster, NodeSpec
    from repro.jaws import CromwellEngine, EngineOptions, parse_wdl
    from repro.rm import BatchScheduler
    from repro.simkernel import Environment

    p = SCALES[scale]
    with spans.span("build"):
        rng = np.random.default_rng(seed)
        minutes = int(rng.integers(1, 6))
        digest = rng.bytes(8).hex()
        samples = [f"s{v:08x}.fq" for v in rng.integers(0, 2**32, p["shards"])]
        with spans.span("parse"):
            doc = parse_wdl(_STORM_WDL.format(minutes=minutes, digest=digest))
        env = Environment()
        cluster = Cluster(
            env,
            name="jaws-site",
            pools=[(NodeSpec("c", cores=16, memory_gb=128), p["site_nodes"])],
        )
        engine = CromwellEngine(
            env,
            BatchScheduler(env, cluster),
            EngineOptions(container_start_s=_CONTAINER_START_S,
                          stage_overhead_s=_STAGE_OVERHEAD_S, call_caching=False),
        )
        result = engine.run(doc, inputs={"samples": samples})
    return env, result, minutes


def shard_storm_iterate(seed, scale, spans, tmp):
    env, result, minutes = shard_storm_build(seed, scale, spans, tmp)
    with spans.span("simulate"):
        env.run(until=result.done)
    return {
        "succeeded": result.succeeded,
        "shards": result.shard_count,
        "makespan_s": result.makespan,
        "shard_s": _CONTAINER_START_S + _STAGE_OVERHEAD_S + 60.0 * minutes,
        "events": env.scheduled_events,
    }


def shard_storm_invariants(out, scale):
    p = SCALES[scale]
    bad = []
    if out["succeeded"] is not True:
        bad.append("workflow did not succeed")
    if out["shards"] != p["shards"]:
        bad.append(f"shards {out['shards']} != {p['shards']}")
    # Batch jobs hold whole nodes, so identical shards run in waves of
    # one per node.
    waves = -(-p["shards"] // p["site_nodes"])
    if out["makespan_s"] != waves * out["shard_s"]:
        bad.append(
            f"makespan {out['makespan_s']} != {waves} waves x {out['shard_s']} s"
        )
    return bad


# -- cws_mix: the E1 strategy grid ------------------------------------------------


def cws_mix_build(seed, scale, spans, tmp):
    from repro.cws import experiment  # noqa: F401  imported as part of set-up
    from repro.report import scenarios  # noqa: F401
    from repro.workloads import workflow_mix

    with spans.span("build"):
        return {
            s: workflow_mix(seed=s)
            for s in range(seed, seed + SCALES[scale]["mix_seeds"])
        }


def cws_mix_iterate(seed, scale, spans, tmp):
    from repro.cws.experiment import STRATEGIES, StrategyRow, run_workflow_once, summarize
    from repro.obs import enable_tracing
    from repro.report import build_report
    from repro.report.scenarios import e1_rules
    from repro.simkernel import Environment

    mixes = cws_mix_build(seed, scale, spans, tmp)
    # The grid of makespan_experiment, with the environments held here
    # so their event counts can be read.
    rows, events = [], 0
    with spans.span("simulate"):
        for mix_seed, mix in mixes.items():
            for wf in mix:
                makespans = []
                for strategy in STRATEGIES:
                    env = Environment()
                    makespans.append(run_workflow_once(wf, strategy, env=env))
                    events += env.scheduled_events
                rows.append(StrategyRow(f"{wf.name}@{mix_seed}", tuple(makespans),
                                        STRATEGIES))
        summary = summarize(rows)
    headline = {}
    for stat in ("mean_reduction", "max_reduction"):
        headline.update(
            {f"{s}_{stat}": v[stat] for s, v in summary["per_strategy"].items()}
        )
    # One traced run: the largest workflow of the first mix under "rank".
    wf = max(mixes[seed], key=lambda w: len(w.graph))
    with spans.span("simulate"):
        env = Environment()
        tracer = enable_tracing(env)
        traced = run_workflow_once(wf, "rank", env=env)
        events += env.scheduled_events
    headline["traced_workflow_makespan_s"] = traced
    with spans.span("report"):
        report = build_report(
            "E1",
            tracer,
            title="CWS workflow-aware scheduling vs FIFO",
            headline=headline,
            rules=e1_rules(),
        )
    verdict = _render(report, spans, tmp)
    grid_rank = rows[list(mixes[seed]).index(wf)].makespan("rank")
    return dict(
        headline,
        runs=len(rows) * len(STRATEGIES) + 1,
        grid_rank_makespan_s=grid_rank,
        status=verdict["status"],
        events=events,
    )


def cws_mix_invariants(out, scale):
    from repro.cws.experiment import STRATEGIES

    bad = []
    expected_runs = 5 * SCALES[scale]["mix_seeds"] * len(STRATEGIES) + 1
    if out["runs"] != expected_runs:
        bad.append(f"runs {out['runs']} != {expected_runs}")
    for key, value in out.items():
        if key.endswith("_reduction") and not -1.0 < value < 1.0:
            bad.append(f"{key} {value} outside (-1, 1)")
    # Tracing must not change the schedule.
    if out["traced_workflow_makespan_s"] != out["grid_rank_makespan_s"]:
        bad.append(
            f"traced makespan {out['traced_workflow_makespan_s']} != untraced "
            f"{out['grid_rank_makespan_s']}"
        )
    if out["status"] not in ("pass", "fail"):
        bad.append(f"report not rendered: {out['status']!r}")
    return bad


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "frontier_report",
            "E2 at paper scale, traced in memory, to a checked report: the "
            "path of `python -m repro.report --bench E2 --full`",
            frontier_report_build,
            frontier_report_iterate,
            frontier_invariants,
        ),
        Workload(
            "shard_storm",
            "10,000-shard WDL scatter, untraced: bound by scheduler and kernel, "
            "the control for tracing and report changes",
            shard_storm_build,
            shard_storm_iterate,
            shard_storm_invariants,
        ),
        Workload(
            "cws_mix",
            "E1 strategy grid on KubeScheduler plus a traced run: the only "
            "path through rm.kube, cws, engines, workloads and core",
            cws_mix_build,
            cws_mix_iterate,
            cws_mix_invariants,
        ),
        Workload(
            "trace_roundtrip",
            "E2 spilled to JSONL, read back with StubTrace and reported in "
            "stream mode: the spill-and-stream path of obs",
            trace_roundtrip_build,
            trace_roundtrip_iterate,
            frontier_invariants,
        ),
    )
}

#: Outputs of the default seed at full scale.  Counts a faster program
#: may legitimately change (kernel events, spill bytes) are not pinned.
PINS = {
    "frontier_report": {
        "makespan_s": 9265.572448868435,
        "tasks_done": 7875,
        "spans": 23627,
        "status": "pass",
    },
    "shard_storm": {"succeeded": True, "shards": 10_000, "makespan_s": 16200.0},
    "cws_mix": {
        "rank_mean_reduction": 0.14969088747865927,
        "filesize_mean_reduction": 0.14633671616571925,
        "heft_mean_reduction": 0.14969088747865927,
        "rank_max_reduction": 0.23076923076923084,
        "filesize_max_reduction": 0.23076923076923084,
        "heft_max_reduction": 0.23076923076923084,
        "traced_workflow_makespan_s": 357.146844065681,
        "status": "pass",
    },
}
PINS["trace_roundtrip"] = PINS["frontier_report"]


def check(name: str, out: dict, seed: int, scale: str, pins=None) -> list:
    """Mismatches of one iteration's outputs; empty when it is correct.

    The pins apply to the default seed at full scale (or to whatever
    ``pins`` the caller passes); other seeds are held to the invariants.
    """
    bad = list(WORKLOADS[name].invariants(out, scale))
    if pins is None and seed == DEFAULT_SEED and scale == "full":
        pins = PINS.get(name)
    for key, want in (pins or {}).items():
        got = out.get(key)
        if got != want:
            bad.append(f"{key} {got!r} != pinned {want!r}")
    return bad
