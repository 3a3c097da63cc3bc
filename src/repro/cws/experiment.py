"""The E1 experiment: workflow-aware scheduling vs the FIFO baseline.

"Prototype implementations show that the CWSI can reduce makespan up
to 25% with simple workflow-aware strategies [...] by implementing the
CWSI alongside basic scheduling approaches like rank and file size, we
achieve an average runtime reduction of 10.8%."

The driver runs each workflow of a mix through the Nextflow-like
engine on a heterogeneous Kubernetes-like cluster, once per strategy,
and reports per-workflow makespans and reductions relative to FIFO.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from repro.cluster import Cluster, NodeSpec
from repro.core.workflow import Workflow
from repro.cws.interface import CWSI
from repro.engines import NextflowLikeEngine
from repro.rm.kube import KubeScheduler
from repro.simkernel import Environment
from repro.workloads import workflow_mix

#: The heterogeneous testbed: three node classes, ~2.6x speed spread,
#: deliberately small so ready tasks outnumber slots (contention is
#: what scheduling policy acts on).
DEFAULT_POOLS = (
    (NodeSpec("small", cores=4, memory_gb=32, speed=1.0), 2),
    (NodeSpec("mid", cores=8, memory_gb=64, speed=1.1), 2),
    (NodeSpec("big", cores=8, memory_gb=128, speed=1.3), 1),
)

STRATEGIES = ("fifo", "rank", "filesize", "heft")


@dataclass(frozen=True)
class StrategyRow:
    """Makespans of one workflow under every strategy."""

    workflow: str
    makespans: tuple  # aligned with the strategies tuple passed in
    strategies: tuple

    def makespan(self, strategy: str) -> float:
        return self.makespans[self.strategies.index(strategy)]

    def reduction(self, strategy: str, baseline: str = "fifo") -> float:
        base = self.makespan(baseline)
        return 1.0 - self.makespan(strategy) / base if base else 0.0


def start_workflow(
    workflow: Workflow,
    strategy: str,
    env: Environment,
    pools: Sequence = DEFAULT_POOLS,
):
    """Wire one workflow run under one strategy onto ``env``.

    Returns the engine's run handle; the caller drives
    ``env.run(until=run.done)`` and reads ``run.makespan``.
    """
    cluster = Cluster(env, pools=list(pools))
    scheduler = KubeScheduler(env, cluster)
    cwsi = CWSI(env, scheduler, strategy=strategy)
    engine = NextflowLikeEngine(env, scheduler, cwsi=cwsi)
    return engine.run(workflow)


def run_workflow_once(
    workflow: Workflow,
    strategy: str,
    pools: Sequence = DEFAULT_POOLS,
    env: Optional[Environment] = None,
) -> float:
    """Execute one workflow under one strategy; returns its makespan.

    Pass a pre-built ``env`` (e.g. one with tracing enabled via
    :func:`repro.obs.enable_tracing`) to observe the run; by default a
    fresh, untraced environment is used per call so grid sweeps stay
    independent.
    """
    env = env if env is not None else Environment()
    run = start_workflow(workflow, strategy, env, pools)
    env.run(until=run.done)
    if not run.succeeded:
        raise RuntimeError(f"{workflow.name} failed under {strategy}: {run.stats}")
    return run.makespan


def makespan_experiment(
    seeds: Sequence[int] = (0, 1, 2),
    strategies: Sequence[str] = STRATEGIES,
    pools: Sequence = DEFAULT_POOLS,
    mix_factory: Optional[Callable] = None,
) -> list:
    """Run the workflow mix × strategies × seeds grid.

    Returns one :class:`StrategyRow` per (workflow, seed).
    """
    mix_factory = mix_factory or workflow_mix
    rows = []
    for seed in seeds:
        for wf in mix_factory(seed=seed):
            makespans = tuple(
                run_workflow_once(wf, strategy, pools) for strategy in strategies
            )
            rows.append(
                StrategyRow(
                    workflow=f"{wf.name}@{seed}",
                    makespans=makespans,
                    strategies=tuple(strategies),
                )
            )
    return rows


def summarize(rows: list, baseline: str = "fifo") -> dict:
    """Aggregate reductions per strategy: mean, max, per-workflow table."""
    if not rows:
        raise ValueError("no rows")
    strategies = rows[0].strategies
    summary: dict = {"baseline": baseline, "per_strategy": {}}
    for strategy in strategies:
        if strategy == baseline:
            continue
        reductions = np.array([r.reduction(strategy, baseline) for r in rows])
        summary["per_strategy"][strategy] = {
            "mean_reduction": float(reductions.mean()),
            "max_reduction": float(reductions.max()),
            "min_reduction": float(reductions.min()),
            "wins": int((reductions > 0).sum()),
            "n": len(reductions),
        }
    return summary
