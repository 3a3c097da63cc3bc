"""The E1–E8 scenario registry: every paper experiment, declared once.

Each :class:`Scenario` replays one paper experiment and is the single
definition every consumer shares: ``python -m repro.report``, the
golden determinism digests, the batch-permutation checker
(``python -m repro.sanitizer``), the checkpoint runner, the perf
harness and the ``benchmarks/bench_*.py`` suite.

A scenario has three named scales, each a plain parameter dict:

``golden``
    The smallest inputs, pinned byte-for-byte by
    ``tests/golden/trace_digests.json`` and re-run under batch
    permutation by the sanitizer.
``reduced``
    Seconds-long runs: the default of ``python -m repro.report`` and
    the checkpoint runner.
``full``
    The paper's scale (``--full``), as the slow benchmarks run it.

Running a scenario takes two steps around the simulation:

- ``build(env, **params)`` wires the experiment onto an
  :class:`~repro.simkernel.Environment` the caller supplies and returns
  a :class:`Built`.  The caller decides whether that environment is
  traced (:func:`repro.obs.enable_tracing`) and then runs it until
  ``built.done``.  Auxiliary legs a headline compares against (E1's
  strategy grid, E6's cloud run, E7's unfused baseline) run untraced on
  their own environments inside ``build``.
- ``collect(built)`` returns a :class:`Collected`: the headline
  scalars and the raw result object (profile, tasks, engine result).

:func:`execute` does both with the usual defaults and :func:`report`
turns the outcome into a :class:`~repro.report.RunReport` with the
scenario's SLO rules.  This module imports no workflow system at load
time: each ``build`` imports what it drives.

The rule sets are the benchmarks' shape assertions restated as SLOs:
a ``critical`` rule firing at the end of the run fails the report (and
the CI smoke job); ``warning`` rules flag paper-number drift without
failing anything.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Optional

import numpy as np

from repro.obs import enable_tracing, to_jsonl
from repro.obs.alerts import Rule
from repro.report import RunReport, build_report
from repro.simkernel import Environment

#: The named scales every scenario defines, smallest first.
SCALES = ("golden", "reduced", "full")


# -- SLO rule sets ---------------------------------------------------------------


def e1_rules() -> list:
    return [
        Rule("rank_mean_reduction >= 0.05", severity="critical", name="rank-wins"),
        Rule(
            "filesize_mean_reduction >= 0.05",
            severity="critical",
            name="filesize-wins",
        ),
        Rule("rank_mean_reduction <= 0.30", severity="warning", name="paper-band"),
    ]


def e2_rules(nodes: int) -> list:
    return [
        Rule("ovh_s <= 100", severity="critical", name="bootstrap-overhead"),
        Rule("core_utilization >= 0.85", severity="critical", name="utilization"),
        Rule("failed_tasks <= 0", severity="critical", name="no-failures"),
        Rule(
            f"series(entk-pilot-0/executing) <= {nodes // 8}",
            severity="critical",
            name="capacity-respected",
        ),
        Rule("p99(entk.exec) <= 1800", severity="warning", name="exec-p99"),
    ]


def e3_rules(nodes: int) -> list:
    return [
        Rule(
            "scheduling_throughput >= 100",
            severity="critical",
            name="scheduling-rate",
        ),
        Rule("launch_throughput >= 30", severity="critical", name="launch-rate"),
        Rule(
            f"peak_concurrency <= {nodes // 8}",
            severity="critical",
            name="plateau-at-capacity",
        ),
        Rule("scheduling_throughput <= 280", severity="warning", name="paper-269"),
        Rule("launch_throughput <= 60", severity="warning", name="paper-51"),
    ]


def e4_rules(n_tasks: int) -> list:
    return [
        # Node-failure casualties all recover; only the two numerical
        # failures stay failed, so done = submitted - 2.
        Rule(
            f"tasks_done >= {n_tasks - 2}",
            severity="critical",
            name="recovery-complete",
        ),
        Rule("permanently_failed <= 2", severity="critical", name="accepted-losses"),
        # Paper: 10 failure events (8 node + 2 numerical); retries of
        # the numerical tasks add a few more attempts.
        Rule(
            "task_failure_events <= 16", severity="warning", name="failure-events"
        ),
    ]


def e5_rules() -> list:
    return [
        Rule("failures <= 0", severity="critical", name="zero-failures"),
        Rule(
            "salmon_cpu_mean_pct >= 85",
            severity="critical",
            name="salmon-cpu-bound",
        ),
        Rule("salmon_mem_max_mb <= 4000", severity="critical", name="fits-in-ram"),
        Rule(
            "fasterq_iowait_mean_pct >= 15",
            severity="warning",
            name="fasterq-io-bound",
        ),
    ]


def e6_rules() -> list:
    return [
        # The paper's per-step directions: prefetch slower on HPC, the
        # compute steps faster or equal.
        Rule(
            "prefetch_hpc_rel_diff >= 0.3",
            severity="critical",
            name="prefetch-slower-on-hpc",
        ),
        Rule(
            "fasterq_hpc_rel_diff <= -0.1",
            severity="critical",
            name="fasterq-faster-on-hpc",
        ),
        Rule(
            "salmon_hpc_rel_diff <= -0.05",
            severity="critical",
            name="salmon-faster-on-hpc",
        ),
        Rule("hpc_job_efficiency >= 0.6", severity="warning", name="efficiency-72"),
    ]


def e7_rules() -> list:
    return [
        Rule("shard_cut >= 0.7", severity="critical", name="shards-cut"),
        Rule("time_cut >= 0.5", severity="critical", name="time-cut"),
        Rule("time_cut <= 0.85", severity="warning", name="paper-70pct"),
    ]


def e8_rules() -> list:
    return [
        Rule("steps_in_order >= 1", severity="critical", name="pipeline-order"),
        Rule("api_calls <= 5", severity="critical", name="one-call-per-step"),
        Rule("n_clones >= 3", severity="critical", name="clones-recovered"),
        Rule("confidence >= 0.5", severity="critical", name="phylogeny-confident"),
        Rule("recovered_n_clones >= 3", severity="critical", name="error-recovery"),
    ]


# -- the registry ----------------------------------------------------------------


@dataclass
class Built:
    """A scenario wired onto its environment, ready to run."""

    #: The event to run the environment until; ``None`` when nothing
    #: is left to simulate (E8 has no simulated environment).
    done: Any
    #: Whatever the scenario's ``collect`` step reads back.
    parts: dict = field(default_factory=dict)


@dataclass
class Collected:
    """A scenario's outcome: headline scalars plus the raw result."""

    headline: dict
    raw: Any


@dataclass(frozen=True)
class Scenario:
    """One paper experiment with its scales, build and collect steps."""

    bench_id: str
    title: str
    #: The paper figure/table this regenerates.
    figure: str
    #: ``{scale name: build parameters}`` for every name in :data:`SCALES`.
    scales: Mapping[str, Mapping[str, Any]]
    build: Callable[..., Built]
    collect: Callable[[Built], Collected]
    report_title: str
    #: ``rules(params)`` — the SLO rules for a run at ``params``.
    rules: Callable[[Mapping], list]
    #: ``notes(run)`` — free-text report notes for a finished run.
    notes: Callable[["Run"], list]
    #: Extra :func:`~repro.report.build_report` keyword arguments.
    report_options: Mapping[str, Any] = field(default_factory=dict)
    #: For a scenario without a simulated environment (E8): the
    #: canonical document of its raw outcome, which stands in for the
    #: trace wherever a trace would be compared.
    outcome_doc: Optional[Callable[[Any], dict]] = None

    @property
    def simulated(self) -> bool:
        return self.outcome_doc is None

    def params(self, scale: str) -> dict:
        if scale not in self.scales:
            raise KeyError(f"unknown scale {scale!r}; choose from {list(SCALES)}")
        return dict(self.scales[scale])


@dataclass
class Run:
    """One executed scenario."""

    scenario: Scenario
    scale: str
    params: dict
    headline: dict
    raw: Any
    #: ``None`` for E8 and for untraced runs.
    tracer: Any = None


def get(bench_id: str) -> Scenario:
    key = bench_id.upper()
    if key not in SCENARIOS:
        raise KeyError(
            f"unknown benchmark {bench_id!r}; choose from {sorted(SCENARIOS)}"
        )
    return SCENARIOS[key]


def execute(
    bench_id: str, scale: str = "reduced", env: Optional[Environment] = None
) -> Run:
    """Build, run and collect one scenario.

    Without ``env`` the run gets a fresh traced environment.  A caller
    that passes its own ``env`` has already decided about tracing (and
    about its sink): the run is traced exactly when ``env`` is.
    """
    scenario = get(bench_id)
    params = scenario.params(scale)
    tracer = None
    if scenario.simulated:
        if env is None:
            env = Environment()
            enable_tracing(env)
        tracer = env.tracer if env.tracer.enabled else None
    built = scenario.build(env, **params)
    if built.done is not None:
        env.run(until=built.done)
    collected = scenario.collect(built)
    return Run(scenario, scale, params, collected.headline, collected.raw, tracer)


def report(run: Run, stream: bool = False) -> RunReport:
    """The scenario's :class:`~repro.report.RunReport` for ``run``."""
    scenario = run.scenario
    return build_report(
        scenario.bench_id,
        run.tracer,
        title=scenario.report_title,
        headline=run.headline,
        rules=scenario.rules(run.params),
        notes=scenario.notes(run),
        stream=stream,
        **scenario.report_options,
    )


def trace_text(run: Run) -> str:
    """The canonical text of a run: its JSONL trace with metrics, or,
    for a scenario with no simulated environment, the canonical JSON of
    its outcome document.  The golden digests pin this text."""
    if run.scenario.outcome_doc is not None:
        doc = run.scenario.outcome_doc(run.raw)
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return to_jsonl(run.tracer, include_metrics=True)


def run_scenario(
    bench_id: str, full: bool = False, stream: bool = False
) -> RunReport:
    """Run one named scenario and return its report.

    ``stream=True`` routes the analyses through the constant-memory
    :class:`~repro.obs.stream.StubTrace` pass; verdicts are identical
    to the batch path (asserted in ``tests/report/test_stream_mode.py``).
    """
    return report(execute(bench_id, "full" if full else "reduced"), stream)


# -- E1: CWS workflow-aware scheduling -------------------------------------------


def _e1_build(env, grid_seeds) -> Built:
    from repro.cws.experiment import makespan_experiment, start_workflow, summarize
    from repro.workloads import workflow_mix

    parts = {}
    if grid_seeds:
        parts["rows"] = makespan_experiment(seeds=grid_seeds)
        parts["summary"] = summarize(parts["rows"])
    # The traced leg: the largest workflow of the seed-0 mix under
    # "rank", so the report can show where a scheduled makespan goes.
    wf = max(workflow_mix(seed=0), key=lambda w: len(w.graph))
    parts["workflow"] = wf.name
    parts["run"] = start_workflow(wf, "rank", env)
    return Built(parts["run"].done, parts)


def _e1_collect(built: Built) -> Collected:
    parts = built.parts
    run = parts["run"]
    if not run.succeeded:
        raise RuntimeError(f"{parts['workflow']} failed under rank: {run.stats}")
    headline = {}
    per_strategy = parts["summary"]["per_strategy"] if "summary" in parts else {}
    for key in ("mean", "max"):
        headline.update(
            {
                f"{strategy}_{key}_reduction": stats[f"{key}_reduction"]
                for strategy, stats in per_strategy.items()
            }
        )
    headline["traced_workflow_makespan_s"] = run.makespan
    return Collected(headline, parts)


def _e1_notes(run) -> list:
    return [
        f"mix x strategies over seeds {tuple(run.params['grid_seeds'])}; trace: "
        f"{run.raw['workflow']!r} under 'rank'",
        "paper: avg 10.8% makespan reduction, up to 25%",
    ]


# -- E2/E3/E4: EnTK UQ Stage 3 on the simulated Frontier -------------------------


def _numerical_failure_task(name: str, duration: float):
    """An ExaConstit task whose last simulation step always diverges."""
    from repro.entk import EnTask

    def work(env, task, nodes):
        yield env.timeout(duration * 0.95)
        raise RuntimeError("time step too large for this loading condition and RVE")

    return EnTask(work=work, nodes=8, cores_per_node=56, gpus_per_node=8, name=name)


def _stage3_build(
    env, n_tasks, nodes, agent=None, diverging=(), fault_at=None
) -> Built:
    """The UQ Stage 3 campaign: ``n_tasks`` ExaConstit tasks on a
    ``nodes``-node Frontier pilot.  ``diverging`` adds E4's
    ``(name, duration)`` numerical-failure tasks (counted in
    ``n_tasks``); ``fault_at`` kills the middle node at that instant."""
    from repro.entk import AppManager, Pipeline, ResourceDescription, Stage
    from repro.entk.platforms import platform_cluster
    from repro.exaam import frontier_stage3_tasks
    from repro.rm import BatchScheduler

    cluster = platform_cluster(env, "frontier", nodes=nodes)
    batch = BatchScheduler(env, cluster, backfill=False)
    rd_kwargs = {"nodes": nodes, "walltime_s": 24 * 3600}
    if agent is not None:
        rd_kwargs.update(agent=agent, max_jobs=1)
    am = AppManager(env, batch, ResourceDescription(**rd_kwargs))
    tasks = frontier_stage3_tasks(
        n_tasks - len(diverging), rng=np.random.default_rng(42)
    )
    tasks += [_numerical_failure_task(name, t) for name, t in diverging]
    pipeline = Pipeline(name="uq-stage3")
    stage = Stage(name="exaconstit")
    stage.add_tasks(tasks)
    pipeline.add_stage(stage)
    result = am.run([pipeline])
    if fault_at is not None:
        from repro.cluster import FaultInjector

        victim = cluster.nodes[nodes // 2].id
        FaultInjector(env, cluster, schedule=[(fault_at, victim)], downtime=None)
    return Built(result.done, {"result": result})


def _e2_collect(built: Built) -> Collected:
    result = built.parts["result"]
    prof = result.profiles[0]
    headline = {
        "tasks_done": prof.tasks_done,
        "core_utilization": prof.core_utilization,
        "gpu_utilization": prof.gpu_utilization,
        "ovh_s": prof.ovh,
        "ttx_s": prof.ttx,
        "job_runtime_s": prof.job_runtime,
    }
    return Collected(headline, result)


def _e2_notes(run) -> list:
    return [
        f"{run.params['n_tasks']} tasks on {run.params['nodes']} nodes"
        + ("" if run.scale == "full" else " (reduced scale; paper: 7875/8000)"),
        "paper: utilization 90%, OVH 85 s, OVH/runtime ~1%",
    ]


def _e3_collect(built: Built) -> Collected:
    result = built.parts["result"]
    prof = result.profiles[0]
    headline = {
        "scheduling_throughput": prof.scheduling_throughput,
        "launch_throughput": prof.launch_throughput,
        "peak_concurrency": prof.peak_concurrency,
        "tasks_done": prof.tasks_done,
    }
    return Collected(headline, result)


def _e3_notes(run) -> list:
    return [
        "paper: scheduling 269 tasks/s, launching 51 tasks/s, "
        f"plateau at {run.params['nodes'] // 8} concurrent tasks",
    ]


def _e4_build(env, n_tasks, nodes, diverging, fault_at) -> Built:
    from repro.entk import AgentConfig

    # Delayed failure propagation: the agent keeps handing a dead node
    # out until it has cost 8 tasks (the paper's casualties).
    agent = AgentConfig(node_strikes=8, fail_detect_s=15.0, max_task_retries=2)
    return _stage3_build(
        env, n_tasks, nodes, agent=agent, diverging=diverging, fault_at=fault_at
    )


def _e4_collect(built: Built) -> Collected:
    from repro.entk import TaskState

    result = built.parts["result"]
    permanently_failed = [
        t
        for pl in result.pipelines
        for t in pl.all_tasks()
        if t.state == TaskState.FAILED
    ]
    headline = {
        "tasks_done": result.tasks_done(),
        "task_failure_events": result.profiles[0].tasks_failed_events,
        "permanently_failed": len(permanently_failed),
    }
    return Collected(headline, result)


def _e4_notes(run) -> list:
    return [
        f"one node killed at t={run.params['fault_at']:.0f} s with delayed "
        "detection; paper: 8 tasks killed and resubmitted OK, "
        "2 numerical failures",
    ]


_ENTK_REPORT = {"component": "entk-pilot-0", "straggler_category": "entk.exec"}

#: E4's two numerical casualties, as (task name, duration in s).
_E4_DIVERGING = (("constit-diverge-0", 900.0), ("constit-diverge-1", 1100.0))


# -- E5/E6: ATLAS sequencing pipeline, cloud vs HPC ------------------------------


def _e5_build(env, n_files, max_instances) -> Built:
    from repro.atlas.experiment import start_experiment

    result = start_experiment(
        "cloud", env, n_files=n_files, seed=0, max_instances=max_instances
    )
    return Built(result.done, {"result": result})


def _e5_collect(built: Built) -> Collected:
    from repro.atlas import table1

    result = built.parts["result"]
    by_step = {r.step: r for r in table1(result.records)}
    headline = {
        "files": len(result.records),
        "failures": result.failures,
        "makespan_h": result.makespan / 3600,
        "salmon_cpu_mean_pct": by_step["salmon"].cpu_mean_pct,
        "salmon_mem_max_mb": by_step["salmon"].mem_max_mb,
        "fasterq_iowait_mean_pct": by_step["fasterq_dump"].iowait_mean_pct,
    }
    return Collected(headline, result)


def _e5_notes(run) -> list:
    return [
        f"{run.params['n_files']} SRA files"
        + ("" if run.scale == "full" else " (reduced scale; paper: 99)"),
        "paper: Salmon CPU 94%/100%, fasterq-dump iowait 26% mean, "
        "batch ~2.7 h, 0 failures",
    ]


def _e6_build(env, n_files, max_instances, slots) -> Built:
    from repro.atlas.experiment import run_experiment, start_experiment

    cloud = run_experiment(
        "cloud", n_files=n_files, seed=0, max_instances=max_instances
    )
    hpc = start_experiment("hpc", env, n_files=n_files, seed=0, slots=slots)
    return Built(hpc.done, {"cloud": cloud, "hpc": hpc})


def _e6_collect(built: Built) -> Collected:
    from repro.atlas import compare_cloud_hpc

    cloud, hpc = built.parts["cloud"], built.parts["hpc"]
    by_step = {r.step: r for r in compare_cloud_hpc(cloud.records, hpc.records)}
    headline = {
        "cloud_makespan_h": cloud.makespan / 3600,
        "hpc_makespan_h": hpc.makespan / 3600,
        "hpc_job_efficiency": hpc.job_efficiency(),
        "prefetch_hpc_rel_diff": by_step["prefetch"].hpc_relative_diff,
        "fasterq_hpc_rel_diff": by_step["fasterq_dump"].hpc_relative_diff,
        "salmon_hpc_rel_diff": by_step["salmon"].hpc_relative_diff,
        "deseq2_hpc_rel_diff": by_step["deseq2"].hpc_relative_diff,
    }
    return Collected(headline, (cloud, hpc))


def _e6_notes(run) -> list:
    return [
        f"{run.params['n_files']} files per environment; trace covers the HPC run",
        "paper: prefetch 87% slower on HPC, fasterq 30% / salmon 19% "
        "faster, DESeq2 no difference",
    ]


# -- E7: JAWS task fusion --------------------------------------------------------

#: The JGI QC chain's steps: (task, output name, output file, cpu,
#: minutes, image).  Each step consumes the previous step's output.
_JGI_STEPS = {
    "qc": ("cleaned", "cleaned.fq", 2, 1, "jgi/qc@sha256:aa"),
    "trim": ("trimmed", "trimmed.fq", 2, 1, "jgi/qc@sha256:aa"),
    "align": ("bam", "out.bam", 4, 2, "jgi/align@sha256:bb"),
    "stats": ("report", "stats.txt", 1, 1, "jgi/qc@sha256:aa"),
}


def _jgi_workflow(samples: int, chain) -> str:
    """WDL for a scatter over ``samples`` reads files, each running the
    linear ``chain`` of JGI QC steps."""
    tasks, calls, prev = [], [], ("reads", "s")
    for name in chain:
        out, path, cpu, minutes, image = _JGI_STEPS[name]
        tasks.append(
            f"task {name} {{\n"
            f"    input {{ File {prev[0]} }}\n"
            f"    command <<< run_{name} >>>\n"
            f'    output {{ File {out} = "{path}" }}\n'
            f"    runtime {{ cpu: {cpu}, runtime_minutes: {minutes}, "
            f'docker: "{image}" }}\n'
            "}\n"
        )
        calls.append(f"        call {name} {{ input: {prev[0]} = {prev[1]} }}\n")
        prev = (out, f"{name}.{out}")
    names = ", ".join(f'"s{i}.fq"' for i in range(samples))
    return (
        "version 1.0\n"
        + "".join(tasks)
        + "workflow sample_qc {\n"
        f"    input {{ Array[File] samples = [{names}] }}\n"
        "    scatter (s in samples) {\n" + "".join(calls) + "    }\n}\n"
    )


def _e7_build(env, samples, chain, nodes) -> Built:
    from repro.cluster import Cluster, NodeSpec
    from repro.jaws import CromwellEngine, EngineOptions, fuse_linear_chains, parse_wdl
    from repro.rm import BatchScheduler

    # Overhead-dominated cost model: shared-filesystem staging costs far
    # more than the 1-2 minute tools (the regime the JGI anecdote is in).
    options = EngineOptions(container_start_s=45.0, stage_overhead_s=420.0)

    def start(doc, env):
        cluster = Cluster(env, pools=[(NodeSpec("c", cores=16, memory_gb=128), nodes)])
        return CromwellEngine(env, BatchScheduler(env, cluster), options).run(doc)

    wdl = _jgi_workflow(samples, chain)
    baseline_env = Environment()
    baseline = start(parse_wdl(wdl), baseline_env)
    baseline_env.run(until=baseline.done)
    fused_doc, fusions = fuse_linear_chains(parse_wdl(wdl))
    fused = start(fused_doc, env)
    return Built(fused.done, {"baseline": baseline, "fused": fused, "fusions": fusions})


def _e7_collect(built: Built) -> Collected:
    baseline, fused = built.parts["baseline"], built.parts["fused"]
    for result in (baseline, fused):
        if not result.succeeded:
            raise RuntimeError(f"JGI workflow failed: {result.error}")
    fusions = built.parts["fusions"]
    headline = {
        "baseline_makespan_s": baseline.makespan,
        "fused_makespan_s": fused.makespan,
        "time_cut": 1 - fused.makespan / baseline.makespan,
        "baseline_shards": baseline.shard_count,
        "fused_shards": fused.shard_count,
        "shard_cut": 1 - fused.shard_count / baseline.shard_count,
        "chain_length": len(list(fusions.values())[0]),
    }
    return Collected(headline, (baseline, fused, fusions))


def _e7_notes(run) -> list:
    return [
        f"{run.params['samples']}-sample scatter"
        + ("" if run.scale == "full" else " (reduced scale; paper anecdote: 25)"),
        "trace covers the fused run; paper: -70% time, -71% shards",
    ]


# -- E8: LLM-driven Phyloflow (no discrete-event trace) --------------------------

_PHYLOFLOW_INSTRUCTION = (
    "Run the full phyloflow pipeline on tumor.vcf: transform the VCF, "
    "cluster the mutations into 3 clusters, and build the phylogeny."
)

PHYLOFLOW_ORDER = [
    "vcf_transform_from_file",
    "pyclone_vi_from_futures",
    "spruce_format_from_futures",
    "spruce_phylogeny_from_futures",
]


def _e8_build(env, n_mutations) -> Built:
    from repro.llm import (
        ChatWorkflowDriver,
        MockFunctionCallingLLM,
        PhyloflowAdapters,
        make_synthetic_vcf,
    )

    # The LLM loop is synchronous: both runs finish here and ``env``
    # is unused.
    vcf = make_synthetic_vcf(n_mutations=n_mutations, n_clones=3, depth=500, seed=11)
    parts = {}
    for key, failures in (("clean", 0), ("recovery", 1)):
        adapters = PhyloflowAdapters(files={"tumor.vcf": vcf})
        if failures:
            # Error-forwarding variant: one injected transient failure.
            adapters.inject_failure("pyclone_vi_from_futures", times=failures)
        driver = ChatWorkflowDriver(MockFunctionCallingLLM(), adapters)
        result = driver.run(_PHYLOFLOW_INSTRUCTION)
        parts[key] = (result, driver.final_value(result))
    return Built(None, parts)


def _e8_collect(built: Built) -> Collected:
    (result, tree), (recovery, tree2) = built.parts["clean"], built.parts["recovery"]
    headline = {
        "api_calls": result.api_calls,
        "steps_in_order": int(result.calls_made() == PHYLOFLOW_ORDER),
        "futures_registered": len(result.future_ids),
        "n_clones": tree["n_clones"],
        "confidence": tree["confidence"],
        "errors_forwarded": len(recovery.errors),
        "recovered_n_clones": tree2["n_clones"],
    }
    return Collected(headline, (result, tree, recovery, tree2))


def _e8_outcome_doc(raw) -> dict:
    result, tree = raw[0], raw[1]
    return {
        "calls_made": result.calls_made(),
        "api_calls": result.api_calls,
        "n_clones": tree["n_clones"],
        "confidence": round(float(tree["confidence"]), 12),
        "edges": sorted(map(list, tree["edges"])),
    }


def _scales(golden: dict, reduced: dict, full: dict) -> dict:
    return {"golden": golden, "reduced": reduced, "full": full}


_STAGE3_SCALES = _scales(
    {"n_tasks": 120, "nodes": 120},
    {"n_tasks": 400, "nodes": 400},
    {"n_tasks": 7875, "nodes": 8000},
)

SCENARIOS = {
    s.bench_id: s
    for s in [
        Scenario(
            "E1",
            "CWS makespan reduction (§3.5)",
            "makespan table",
            _scales(
                {"grid_seeds": ()}, {"grid_seeds": (0,)}, {"grid_seeds": (0, 1, 2)}
            ),
            _e1_build,
            _e1_collect,
            "CWS workflow-aware scheduling vs FIFO",
            lambda p: e1_rules(),
            _e1_notes,
        ),
        Scenario(
            "E2",
            "EnTK utilization (§4.3, Fig 4)",
            "Fig 4",
            _STAGE3_SCALES,
            _stage3_build,
            _e2_collect,
            "Fig 4 — EnTK resource utilization on Frontier",
            lambda p: e2_rules(p["nodes"]),
            _e2_notes,
            dict(_ENTK_REPORT, idle_metric=("entk-pilot-0", "cores")),
        ),
        Scenario(
            "E3",
            "EnTK concurrency (§4.3, Fig 5)",
            "Fig 5",
            dict(_STAGE3_SCALES, golden={"n_tasks": 160, "nodes": 80}),
            _stage3_build,
            _e3_collect,
            "Fig 5 — EnTK task-state concurrency curves",
            lambda p: e3_rules(p["nodes"]),
            _e3_notes,
            _ENTK_REPORT,
        ),
        Scenario(
            "E4",
            "EnTK fault tolerance (§4.3)",
            "failure table",
            # Reduced and full both run the paper's 1/10-scale campaign.
            _scales(
                {
                    "n_tasks": 100,
                    "nodes": 104,
                    "diverging": (("diverge-0", 900.0),),
                    "fault_at": 2000.0,
                },
                {
                    "n_tasks": 790,
                    "nodes": 800,
                    "diverging": _E4_DIVERGING,
                    "fault_at": 2000.0,
                },
                {
                    "n_tasks": 790,
                    "nodes": 800,
                    "diverging": _E4_DIVERGING,
                    "fault_at": 2000.0,
                },
            ),
            _e4_build,
            _e4_collect,
            "EnTK fault tolerance under a node failure",
            lambda p: e4_rules(p["n_tasks"]),
            _e4_notes,
            _ENTK_REPORT,
        ),
        Scenario(
            "E5",
            "ATLAS cloud metrics (§5.2.1, Table 1)",
            "Table 1",
            _scales(
                {"n_files": 8, "max_instances": 4},
                {"n_files": 24, "max_instances": 12},
                {"n_files": 99, "max_instances": 12},
            ),
            _e5_build,
            _e5_collect,
            "Table 1 — per-step instance metrics, cloud run",
            lambda p: e5_rules(),
            _e5_notes,
            {"straggler_category": "atlas.step"},
        ),
        Scenario(
            "E6",
            "ATLAS cloud vs HPC (§5.2.1, Table 2)",
            "Table 2",
            _scales(
                {"n_files": 8, "max_instances": 4, "slots": 4},
                {"n_files": 24, "max_instances": 12, "slots": 12},
                {"n_files": 99, "max_instances": 12, "slots": 12},
            ),
            _e6_build,
            _e6_collect,
            "Table 2 — cloud vs HPC per-step execution times",
            lambda p: e6_rules(),
            _e6_notes,
            {"straggler_category": "atlas.step"},
        ),
        Scenario(
            "E7",
            "JAWS task fusion (§6.1)",
            "fusion table",
            _scales(
                {"samples": 4, "chain": ("qc", "align"), "nodes": 16},
                {"samples": 8, "chain": tuple(_JGI_STEPS), "nodes": 32},
                {"samples": 25, "chain": tuple(_JGI_STEPS), "nodes": 32},
            ),
            _e7_build,
            _e7_collect,
            "JGI task fusion: 4-task QC chain -> 1",
            lambda p: e7_rules(),
            _e7_notes,
            {"straggler_category": "jaws.call"},
        ),
        Scenario(
            "E8",
            "LLM Phyloflow (§2.1)",
            "pipeline demo",
            _scales({"n_mutations": 60}, {"n_mutations": 90}, {"n_mutations": 90}),
            _e8_build,
            _e8_collect,
            "NL-driven Phyloflow execution via function calling",
            lambda p: e8_rules(),
            lambda run: ["no discrete-event trace; scalar SLOs only"],
            outcome_doc=_e8_outcome_doc,
        ),
    ]
}


__all__ = [
    "SCALES",
    "SCENARIOS",
    "PHYLOFLOW_ORDER",
    "Built",
    "Collected",
    "Run",
    "Scenario",
    "e1_rules",
    "e2_rules",
    "e3_rules",
    "e4_rules",
    "e5_rules",
    "e6_rules",
    "e7_rules",
    "e8_rules",
    "execute",
    "get",
    "report",
    "run_scenario",
    "trace_text",
]
