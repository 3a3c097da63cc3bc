"""Regenerate every paper experiment in one run (no pytest needed).

Prints the paper-vs-measured summary for E1-E8.  Every experiment comes
from the scenario registry (``repro.report.scenarios``), the same
definitions the benchmark harness (``pytest benchmarks/
--benchmark-only``) and ``python -m repro.report`` run, so the three
can never drift.

Run: ``python examples/paper_reproduction.py [--quick]``
``--quick`` runs every scenario at its reduced scale (seconds) instead
of the paper's scale.
"""

import sys

from repro.atlas import compare_cloud_hpc, table1
from repro.report.scenarios import execute


def hr(title: str) -> None:
    print("\n" + "=" * 70)
    print(title)
    print("=" * 70)


def main(quick: bool = False) -> None:
    scale = "reduced" if quick else "full"

    hr("E1 — CWS makespan reduction (paper: avg 10.8%, max 25%)")
    summary = execute("E1", scale).raw["summary"]
    for strategy, stats in summary["per_strategy"].items():
        print(f"  {strategy:<9} mean {stats['mean_reduction'] * 100:5.1f}%  "
              f"max {stats['max_reduction'] * 100:5.1f}%  "
              f"wins {stats['wins']}/{stats['n']}")

    hr("E2/E3 — EnTK on Frontier (paper: 90% util, OVH 85s, 269/51 tasks/s)")
    prof = execute("E2", scale).raw.profiles[0]
    for line in prof.summary_lines():
        print("  " + line)

    hr("E4 — fault tolerance (paper: 8 node-failure casualties recovered, 2 numerical)")
    result = execute("E4", scale).raw
    tasks = [t for pl in result.pipelines for t in pl.all_tasks()]
    causes = [(t.name, str(c)) for t in tasks for c in t.failure_causes]
    node_failed = {n for n, c in causes if "dead-node" in c or "frontier" in c}
    numerical = {n for n, c in causes if "time step" in c}
    print(f"  tasks killed by the node failure: {len(node_failed)} (recovered)")
    print(f"  numerical failures: {len(numerical)} (accepted)")
    print(f"  completed: {result.tasks_done()}/{len(tasks)}")

    hr("E5 — Table 1 (cloud instance metrics)")
    cloud = execute("E5", scale).raw
    for row in table1(cloud.records):
        print("  " + row.format())

    hr("E6 — Table 2 (cloud vs HPC)")
    cloud2, hpc = execute("E6", scale).raw
    for row in compare_cloud_hpc(cloud2.records, hpc.records):
        print("  " + row.format())
    print(f"  hpc job efficiency: {hpc.job_efficiency() * 100:.0f}% (paper ~72%)")

    hr("E7 — task fusion (paper: -70% time, -71% shards)")
    baseline, fused, fusions = execute("E7", scale).raw
    print(f"  fused: {list(fusions.values())[0]}")
    print(f"  shards {baseline.shard_count} -> {fused.shard_count} "
          f"({(1 - fused.shard_count / baseline.shard_count) * -100:.0f}%)")
    print(f"  time {baseline.makespan / 60:.0f} -> {fused.makespan / 60:.0f} min "
          f"({(1 - fused.makespan / baseline.makespan) * -100:.0f}%)")

    hr("E8 — NL-driven Phyloflow via function calling")
    result8, tree, recovery, tree2 = execute("E8", scale).raw
    print(f"  calls: {' -> '.join(n.split('_from')[0] for n in result8.calls_made())}")
    print(f"  clones recovered: {tree['n_clones']} (planted 3), "
          f"confidence {tree['confidence']:.2f}")
    print(f"  error-forwarding run: {len(recovery.errors)} forwarded error, "
          f"completed with {tree2['n_clones']} clones")

    print("\nAll experiments regenerated.  Full tables: "
          "pytest benchmarks/ --benchmark-only && cat benchmarks/results/*.txt")


if __name__ == "__main__":
    main(quick="--quick" in sys.argv)
