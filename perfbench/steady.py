"""Steadiness check: run one workload N times and report each metric's spread.

    python3 perfbench/steady.py --workload frontier_report --runs 10
    python3 perfbench/steady.py --workload frontier_report --runs 10 --save a.json
    python3 perfbench/steady.py --workload frontier_report --runs 10 --against a.json

Each run is a fresh ``perfbench/run.py`` process with its own seed
(``--first-seed``, ``--first-seed + 1``, ...) and the ``run_seconds`` of
``BENCHMARK.json``.  For every end-to-end metric it prints the median,
the quartiles, and the spread (interquartile distance over the median)
against the metric's bound: a spread under a third of the bound is
steady, one above the bound is too noisy to gate on.  ``--against``
compares the medians with a saved earlier set, which is the evidence
that two sets of runs of the same code agree.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values) -> tuple:
    """``(median, q1, q3, (q3 - q1) / median)`` of one metric's run values."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med


def run_once(workload: str, seed: int, seconds: int) -> dict:
    """One timing run: its result line, with its info line under ``info``."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["info"] = json.loads(lines[-2])["info"]
    return result


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--save", help="write the per-run values to this JSON file")
    parser.add_argument("--against", help="compare medians with a --save file")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    bounds = {m["name"]: m for m in spec["end_to_end"]}
    values: dict = {name: [] for name in bounds}
    samples = []
    failed = attempted = 0
    correct = True
    for k in range(args.runs):
        result = run_once(args.workload, args.first_seed + k, spec["run_seconds"])
        correct &= result["correct"]
        failed += result["failed"]
        attempted += result["attempted"]
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        samples.append(result["info"]["wall_s_samples"])
        print(f"run {k + 1}/{args.runs} seed {args.first_seed + k}: "
              + ", ".join(f"{n}={v[-1]:.4f}" for n, v in values.items()),
              file=sys.stderr)

    earlier = json.loads(Path(args.against).read_text()) if args.against else {}
    ok = correct and failed == 0
    print(f"{args.workload}: {args.runs} runs, {attempted} operations, "
          f"{failed} failed, correct={correct}")
    for name, vals in values.items():
        med, q1, q3, rel = spread(vals)
        bound = bounds[name]["bound"]
        verdict = "steady" if rel < bound / 3 else "ok" if rel <= bound else "NOISY"
        if name == "setup_s" and verdict == "NOISY":
            verdict = "noisy (not gated)"
        elif verdict == "NOISY":
            ok = False
        line = (f"  {name:12s} median {med:.4f} q1 {q1:.4f} q3 {q3:.4f} "
                f"spread {rel:.2%} bound {bound:.0%} -> {verdict}")
        if name in earlier:
            before = statistics.median(earlier[name])
            worse = (med - before) / before
            if bounds[name]["better"] == "higher":
                worse = -worse
            agree = worse <= bound
            ok &= agree
            line += (f"; earlier median {before:.4f}, worse by {worse:+.2%} "
                     f"-> {'agrees' if agree else 'DISAGREES'}")
        print(line)
    if args.save:
        Path(args.save).write_text(
            json.dumps(dict(values, wall_s_samples=samples), indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
