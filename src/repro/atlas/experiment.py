"""Experiment drivers regenerating Table 1 and Table 2.

Table 1 — "Aggregated instance-wide metrics during execution of each
pipeline step": per-step mean/max of CPU usage, CPU iowait and memory
over all processed files (cloud run).

Table 2 — "Performance comparison between Cloud and HPC.  Calculated
as an average of relative difference in execution time": per-step
mean/max execution times in both environments and the per-file-averaged
relative difference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.atlas.cloud import CloudDeployment
from repro.atlas.hpc import HpcDeployment
from repro.atlas.steps import PIPELINE_STEPS
from repro.atlas.workload import make_workload
from repro.simkernel import Environment


@dataclass(frozen=True)
class Table1Row:
    """One pipeline step's aggregated instance metrics."""

    step: str
    cpu_mean_pct: float
    cpu_max_pct: float
    iowait_mean_pct: float
    iowait_max_pct: float
    mem_mean_mb: float
    mem_max_mb: float

    def format(self) -> str:
        return (
            f"{self.step:<13} CPU {self.cpu_mean_pct:5.1f}%/{self.cpu_max_pct:5.1f}%  "
            f"iowait {self.iowait_mean_pct:5.1f}%/{self.iowait_max_pct:5.1f}%  "
            f"mem {self.mem_mean_mb:7.0f}MB/{self.mem_max_mb:7.0f}MB"
        )


@dataclass(frozen=True)
class Table2Row:
    """One step's cloud vs HPC execution-time comparison."""

    step: str
    cloud_mean_s: float
    cloud_max_s: float
    hpc_mean_s: float
    hpc_max_s: float
    #: Mean over files of (hpc - cloud) / cloud; positive = HPC slower.
    hpc_relative_diff: float

    @property
    def verdict(self) -> str:
        if abs(self.hpc_relative_diff) < 0.05:
            return "No difference"
        if self.hpc_relative_diff > 0:
            return f"{self.hpc_relative_diff * 100:.0f}% slower"
        return f"{-self.hpc_relative_diff * 100:.0f}% faster"

    def format(self) -> str:
        return (
            f"{self.step:<13} cloud {self.cloud_mean_s / 60:5.1f}/{self.cloud_max_s / 60:5.1f} min  "
            f"hpc {self.hpc_mean_s / 60:5.1f}/{self.hpc_max_s / 60:5.1f} min  "
            f"HPC {self.verdict}"
        )


def run_experiment(
    environment: str,
    n_files: int = 99,
    seed: int = 0,
    max_instances: int = 12,
    slots: int = 24,
    pathway: str = "salmon",
    env: Optional[Environment] = None,
):
    """Run the full pipeline over a synthetic corpus in one environment.

    ``environment`` is ``"cloud"``, ``"hpc"``, or ``"hybrid"`` (the
    §5.3 split-workload architecture); ``pathway`` selects the Salmon
    or STAR path.  Returns the deployment result.  The same seed
    produces the same workload everywhere, so Table 2's per-file
    comparison is apples to apples.  Pass ``env`` (e.g. with tracing
    enabled) to observe the run; by default a fresh environment is
    created.
    """
    env = env if env is not None else Environment()
    result = start_experiment(
        environment, env, n_files, seed, max_instances, slots, pathway
    )
    env.run(until=result.done)
    return result


def start_experiment(
    environment: str,
    env: Environment,
    n_files: int = 99,
    seed: int = 0,
    max_instances: int = 12,
    slots: int = 24,
    pathway: str = "salmon",
):
    """Wire :func:`run_experiment`'s deployment onto ``env``.

    Returns the deployment result; the caller drives
    ``env.run(until=result.done)``.
    """
    workload = make_workload(n_files=n_files, seed=seed)
    rng = np.random.default_rng(seed + 1)
    if environment == "cloud":
        deployment = CloudDeployment(
            env, max_instances=max_instances, pathway=pathway, rng=rng
        )
    elif environment == "hpc":
        deployment = HpcDeployment(env, slots=slots, pathway=pathway, rng=rng)
    elif environment == "hybrid":
        from repro.atlas.hybrid import HybridDeployment

        deployment = HybridDeployment(
            env,
            CloudDeployment(
                env, max_instances=max_instances, pathway=pathway, rng=rng
            ),
            HpcDeployment(
                env, slots=slots, pathway=pathway,
                rng=np.random.default_rng(seed + 2),
            ),
        )
    else:
        raise ValueError("environment must be 'cloud', 'hpc', or 'hybrid'")
    return deployment.run(workload)


def table1(records: list) -> list:
    """Aggregate per-step instance metrics over all pipeline records."""
    if not records:
        raise ValueError("no records")
    rows = []
    # Step order comes from the records themselves (insertion-ordered),
    # so Salmon- and STAR-pathway runs both render correctly.
    steps = list(records[0].steps)
    for step in steps:
        samples = [r.steps[step] for r in records if step in r.steps]
        if not samples:
            continue
        rows.append(
            Table1Row(
                step=step,
                cpu_mean_pct=float(np.mean([s.cpu_pct_mean for s in samples])),
                cpu_max_pct=float(np.max([s.cpu_pct_max for s in samples])),
                iowait_mean_pct=float(np.mean([s.iowait_pct_mean for s in samples])),
                iowait_max_pct=float(np.max([s.iowait_pct_max for s in samples])),
                mem_mean_mb=float(np.mean([s.mem_mb_mean for s in samples])),
                mem_max_mb=float(np.max([s.mem_mb_max for s in samples])),
            )
        )
    return rows


def compare_cloud_hpc(cloud_records: list, hpc_records: list) -> list:
    """Per-step Table 2 comparison.

    Records are matched by accession id; the relative difference is
    averaged per file, exactly as the table caption specifies.
    """
    cloud_by_acc = {r.accession.accession: r for r in cloud_records}
    hpc_by_acc = {r.accession.accession: r for r in hpc_records}
    common = sorted(set(cloud_by_acc) & set(hpc_by_acc))
    if not common:
        raise ValueError("no common accessions between the two runs")
    rows = []
    for step in list(cloud_by_acc[common[0]].steps):
        cloud_t = np.array([cloud_by_acc[a].step_duration(step) for a in common])
        hpc_t = np.array([hpc_by_acc[a].step_duration(step) for a in common])
        rel = (hpc_t - cloud_t) / cloud_t
        rows.append(
            Table2Row(
                step=step,
                cloud_mean_s=float(cloud_t.mean()),
                cloud_max_s=float(cloud_t.max()),
                hpc_mean_s=float(hpc_t.mean()),
                hpc_max_s=float(hpc_t.max()),
                hpc_relative_diff=float(rel.mean()),
            )
        )
    return rows
