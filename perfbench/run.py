"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload frontier_report --seed 0 --seconds 25 --trace 0

Run it from the root of a checkout; it imports ``repro`` from ``src/``.
Each run is one fresh single-threaded process (BLAS and OpenMP pinned to
one thread) driving a closed loop with one caller: iterations run back
to back, never overlapping.

``--trace 0`` (timing run):
    one untimed warm-up iteration, then timed iterations, each after
    ``gc.collect()``, until they add up to ``--seconds``.  ``wall_s`` is
    the median iteration time from scenario build to a checked report.
    ``setup_s`` is the median over several fresh child processes, run
    between the iterations, of the time to import the workload's layers
    and build its first scenario.  ``peak_rss_mb`` is this process's
    peak resident memory.
``--trace 1`` (per-layer run, kept apart from the timing runs):
    one untimed warm-up, one untraced base iteration, span-recorded
    iterations until ``--seconds`` have passed (medians reported), and
    one iteration under the profiler (see :mod:`perfbench.layers`).

Every iteration is one operation; it fails when it raises or when its
outputs differ from the warm-up's, from the pins, or from the invariants.
The last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``; the line before it records the interpreter, ``nproc``, the
load average and the raw samples, and in trace runs the spans and the
profiler buckets.  Files go to a temporary directory under
``.perfbench-tmp/`` that is removed at the end.
"""

from __future__ import annotations

import os

# Before numpy is imported anywhere, in this process and its children.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TMP_ROOT = ROOT / ".perfbench-tmp"

# Run as a script, only perfbench/ itself is on the path.
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import layers, workloads  # noqa: E402

#: Fresh processes whose set-up time makes up one ``setup_s`` sample.
SETUP_PROBES = 5
#: Timed iterations run even when ``--seconds`` is already used up.
MIN_ITERATIONS = 3
#: Mismatch messages kept per run for the info line.
MAX_MISMATCHES = 5


def _environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
    }


@contextlib.contextmanager
def _scratch():
    """A temporary directory under :data:`TMP_ROOT`, removed afterwards."""
    TMP_ROOT.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=TMP_ROOT) as tmp:
            yield tmp
    finally:
        # Left in place while another run in this checkout still uses it.
        with contextlib.suppress(OSError):
            TMP_ROOT.rmdir()


def _probe_setup(workload: str, seed: int, scale: str) -> float:
    """Set-up seconds of one fresh process (see :func:`_setup_probe`)."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed), "--scale", scale],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def _setup_probe(workload: str, seed: int, scale: str) -> None:
    """Print the seconds to import the workload's layers and build it once."""
    with _scratch() as tmp:
        t0 = time.perf_counter()
        workloads.WORKLOADS[workload].build(seed, scale, layers.NULL_SPANS, tmp)
        elapsed = time.perf_counter() - t0
    print(repr(elapsed))


class _Loop:
    """Runs iterations and checks each against the pins and the warm-up."""

    def __init__(self, name, seed, scale, tmp, pins):
        self.workload = workloads.WORKLOADS[name]
        self.name, self.seed, self.scale, self.tmp, self.pins = (
            name, seed, scale, tmp, pins)
        self.attempted = self.failed = 0
        self.mismatches: list = []
        self.reference = None
        self.warm_ok = False

    def _note(self, messages) -> None:
        self.mismatches.extend(messages[: MAX_MISMATCHES - len(self.mismatches)])

    def _iterate(self, spans):
        try:
            return self.workload.iterate(self.seed, self.scale, spans, self.tmp)
        except Exception:  # the operation failed; the run goes on
            self._note([traceback.format_exc(limit=-3)])
            return None

    def _check(self, out) -> bool:
        if out is None:
            return False
        bad = workloads.check(self.name, out, self.seed, self.scale, self.pins)
        if self.reference is not None and out != self.reference:
            bad.append(f"outputs {out} differ from the warm-up's {self.reference}")
        self._note(bad)
        return not bad

    def warm_up(self) -> float:
        """The untimed first iteration; later outputs must equal its own."""
        t0 = time.perf_counter()
        out = self._iterate(layers.NULL_SPANS)
        elapsed = time.perf_counter() - t0
        self.warm_ok = self._check(out)
        self.reference = out
        return elapsed

    def once(self, spans, wrap=None):
        """One timed operation: ``(seconds, outputs, ok)``.

        ``wrap(fn)``, when given, calls ``fn`` and returns its result
        (the profiler pass wraps the operation this way).
        """

        def operation():
            with spans.span("iteration"):
                out = self._iterate(spans)
                return out, self._check(out)

        gc.collect()
        t0 = time.perf_counter()
        out, ok = wrap(operation) if wrap else operation()
        elapsed = time.perf_counter() - t0
        self.attempted += 1
        self.failed += not ok
        return elapsed, out, ok

    @property
    def correct(self) -> bool:
        return self.warm_ok and self.failed == 0


def timed_run(name, seed, seconds, scale="full", pins=None, probes=SETUP_PROBES):
    """The ``--trace 0`` run; returns ``(result, info)``."""
    env_start = _environment()
    # The set-up probes are spread over the timed window, so that they
    # and the iterations see the same spells of a busy or quiet host.
    probes_due = [k * seconds / probes for k in range(probes)]
    setup, times, good = [], [], []
    with _scratch() as tmp:
        loop = _Loop(name, seed, scale, tmp, pins)
        warm = loop.warm_up()
        while probes_due or loop.attempted < MIN_ITERATIONS or sum(times) < seconds:
            if probes_due and sum(times) >= probes_due[0]:
                probes_due.pop(0)
                setup.append(_probe_setup(name, seed, scale))
                continue
            elapsed, _out, ok = loop.once(layers.NULL_SPANS)
            times.append(elapsed)
            if ok:
                good.append(elapsed)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # A failed operation is never a timed success; with none passing the
    # run is incorrect and the median of all attempts is reported.
    wall = statistics.median(good or times)
    result = {
        "correct": loop.correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {
            "wall_s": {"value": wall, "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        },
    }
    info = {
        "workload": name, "seed": seed, "scale": scale,
        "environment": env_start, "loadavg_end": list(os.getloadavg()),
        "warmup_s": warm, "wall_s_samples": times, "setup_s_samples": setup,
        "mismatches": loop.mismatches,
    }
    return result, info


def traced_run(name, seed, seconds, scale="full", pins=None):
    """The ``--trace 1`` run; returns ``(result, info)``."""
    env_start = _environment()
    with _scratch() as tmp:
        loop = _Loop(name, seed, scale, tmp, pins)
        loop.warm_up()
        base, _out, _ok = loop.once(layers.NULL_SPANS)

        span_runs = []
        deadline = time.perf_counter() + seconds
        while not span_runs or time.perf_counter() < deadline:
            spans = layers.SpanRecorder()
            loop.once(spans)
            span_runs.append(spans)

        profile = {}

        def profiled(fn):
            profile.update(layers.profile(fn, str(SRC / "repro") + os.sep))
            return profile.pop("result")

        _s, out, _ok = loop.once(layers.SpanRecorder(), profiled)

    span_self = layers.median_self_times(span_runs)
    problems = layers.self_checks(span_runs, profile)
    loop._note(problems)
    values = layers.layer_values(out or loop.reference, span_self, profile, base)
    result = {
        "correct": loop.correct and not problems,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {
            metric: {"value": values[metric], "unit": unit}
            for metric, unit, _better, _moves in layers.PER_LAYER
        },
    }
    info = {
        "workload": name, "seed": seed, "scale": scale,
        "environment": env_start, "loadavg_end": list(os.getloadavg()),
        "overhead_base": "untraced iteration after warm-up (trace.base_wall_s)",
        "profiled_wall_s": profile["wall_s"],
        "profiler_buckets_s": profile["buckets"],
        "span_self_s_median": span_self,
        "spans": span_runs[len(span_runs) // 2].to_records(),
        "mismatches": loop.mismatches,
    }
    return result, info


def _parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py",
                                     description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(workloads.SCALES), default="full",
                        help="'smoke' is the benchmark's own test scale")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from the root of a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    if args.setup_probe:
        _setup_probe(args.workload, args.seed, args.scale)
        return 0
    run = traced_run if args.trace else timed_run
    result, info = run(args.workload, args.seed, args.seconds, args.scale)
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
