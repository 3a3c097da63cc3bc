"""Per-layer attribution for the traced run.

Three instruments, all outside the program:

- :class:`SpanRecorder` marks each call the benchmark makes into a layer
  (build, ``env.run``, ``tracer.close``, ``StubTrace.from_jsonl``,
  ``build_report``, render).  Spans stay in memory until the run ends.
  A span's self time is its duration minus the time its children cover.
- :func:`profile` runs one iteration under ``cProfile`` and sums
  self time per ``repro.<package>``; time in C builtins and in code
  outside ``repro`` and networkx (the standard library, numpy) is
  charged to the package that called it.  The same pass gives the cumulative time
  of named public entry points and exact call counts.
- Counts read from the program's public state come back in the
  iteration's outputs (``events``, ``tasks_done``, ``shards`` ...).

:data:`PER_LAYER` lists every per-layer metric with the end-to-end metric
and workload it should move; ``BENCHMARK.json`` carries its name, unit
and direction.
"""

from __future__ import annotations

import contextlib
import cProfile
import os
import pstats
import statistics
import time
from collections import defaultdict

#: name, unit, better, what it should move (end-to-end metric: workloads).
PER_LAYER = [
    ("simkernel.self_s", "s", "lower", "wall_s: shard_storm most, frontier_report"),
    ("simkernel.events", "count", "lower", "wall_s: shard_storm, frontier_report"),
    ("simkernel.events_per_s", "1/s", "higher", "wall_s: shard_storm, frontier_report"),
    ("rm.self_s", "s", "lower", "wall_s: shard_storm (batch), cws_mix (kube)"),
    ("rm.submits", "count", "lower", "wall_s: shard_storm, cws_mix"),
    ("cluster.self_s", "s", "lower", "wall_s: shard_storm, frontier_report"),
    ("cluster.fit_queries", "count", "lower", "wall_s: shard_storm, frontier_report"),
    ("entk.self_s", "s", "lower", "wall_s: frontier_report, trace_roundtrip"),
    ("entk.tasks_done", "count", "higher", "pinned output of frontier_report, trace_roundtrip"),
    ("entk.task_failures", "count", "lower", "pinned output of frontier_report, trace_roundtrip"),
    ("exaam.self_s", "s", "lower", "setup_s: frontier_report, trace_roundtrip"),
    ("build.self_s", "s", "lower", "setup_s: every workload"),
    ("simulate.self_s", "s", "lower", "wall_s: every workload"),
    ("jaws.self_s", "s", "lower", "wall_s: shard_storm"),
    ("jaws.parse_s", "s", "lower", "setup_s and wall_s: shard_storm"),
    ("jaws.shards", "count", "higher", "pinned output of shard_storm"),
    ("cws.self_s", "s", "lower", "wall_s: cws_mix"),
    ("core.self_s", "s", "lower", "wall_s: cws_mix"),
    ("engines.self_s", "s", "lower", "wall_s: cws_mix"),
    ("workloads.self_s", "s", "lower", "wall_s and setup_s: cws_mix"),
    ("networkx.self_s", "s", "lower", "wall_s: cws_mix"),
    ("cws.runs", "count", "higher", "pinned output of cws_mix"),
    ("obs.self_s", "s", "lower", "wall_s and peak_rss_mb: frontier_report; zero on shard_storm"),
    ("obs.spans", "count", "lower", "wall_s and peak_rss_mb: frontier_report; zero on shard_storm"),
    ("obs.metric_records", "count", "lower", "wall_s: frontier_report; zero on shard_storm"),
    ("obs.stream.self_s", "s", "lower", "wall_s and peak_rss_mb: trace_roundtrip"),
    ("obs.spill_bytes", "bytes", "lower", "wall_s: trace_roundtrip"),
    ("obs.spill_records", "count", "lower", "wall_s: trace_roundtrip"),
    ("sink.close_s", "s", "lower", "wall_s: trace_roundtrip"),
    ("load.self_s", "s", "lower", "wall_s and peak_rss_mb: trace_roundtrip"),
    ("load.records_per_s", "1/s", "higher", "wall_s: trace_roundtrip"),
    ("obs.analyze.cum_s", "s", "lower", "wall_s: frontier_report, trace_roundtrip, cws_mix"),
    ("obs.alerts.cum_s", "s", "lower", "wall_s: frontier_report, trace_roundtrip, cws_mix"),
    ("report.self_s", "s", "lower", "wall_s: frontier_report, trace_roundtrip, cws_mix"),
    ("report.render_s", "s", "lower", "wall_s: frontier_report, trace_roundtrip, cws_mix"),
    ("other.self_s", "s", "lower", "wall_s: time outside repro and networkx"),
    ("trace.base_wall_s", "s", "lower", "untraced iteration the overhead is taken against"),
    ("trace.overhead_ratio", "ratio", "lower", "profiled iteration wall / trace.base_wall_s"),
]

#: Public entry points whose cumulative time is reported.
_CUMULATIVE = {
    "obs.analyze.cum_s": ("obs/analyze.py", {"critical_path", "decompose_overheads",
                                              "find_stragglers", "find_idle_gaps"}),
    "obs.alerts.cum_s": ("obs/alerts.py", {"evaluate_rules"}),
}

#: Calls counted exactly by the profiler.
_CALLS = {
    "rm.submits": (("rm/batch.py", "rm/kube.py"), {"submit"}),
    "cluster.fit_queries": (("cluster/cluster.py",), {"first_fit", "iter_matching"}),
    "obs.metric_records": (("obs/metrics.py",), {"record", "increment", "inc"}),
}

#: Packages with a ``<name>.self_s`` metric; the rest is ``other.self_s``.
_REPORTED = ("simkernel", "rm", "cluster", "entk", "exaam", "jaws", "cws", "core",
             "engines", "workloads", "networkx", "obs", "obs.stream", "report")

#: Self-time sum of all buckets must match the profiled wall within this share.
ATTRIBUTION_MARGIN = 0.05


class SpanRecorder:
    """Benchmark-side spans: ``[name, start, end, parent index]``."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        try:
            yield
        finally:
            self.spans[idx][2] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> dict:
        """Self seconds per span name, summed over spans of that name."""
        children = defaultdict(list)
        for name, start, end, parent in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        out: dict = defaultdict(float)
        for idx, (name, start, end, _parent) in enumerate(self.spans):
            covered, reach = 0.0, start
            for c0, c1 in sorted(children[idx]):
                c0 = max(c0, reach)
                if c1 > c0:
                    covered += c1 - c0
                    reach = c1
            out[name] += (end - start) - covered
        return dict(out)

    def to_records(self) -> list:
        t0 = self.spans[0][1] if self.spans else 0.0
        return [
            {"name": n, "start": s - t0, "end": e - t0, "parent": p}
            for n, s, e, p in self.spans
        ]


class _NullSpans:
    """Stands in for :class:`SpanRecorder` in timing runs."""

    def span(self, name: str):
        return contextlib.nullcontext()


NULL_SPANS = _NullSpans()


def _bucket(filename: str, src: str) -> str:
    """The package a source file belongs to; ``repro.viz`` renders reports."""
    if filename.startswith(src):
        parts = filename[len(src):].split(os.sep)
        if parts[:2] == ["obs", "stream.py"]:
            return "obs.stream"
        if len(parts) == 1:
            return "repro"
        return "report" if parts[0] == "viz" else parts[0]
    if f"{os.sep}networkx{os.sep}" in filename:
        return "networkx"
    return "other"


def profile(fn, src: str) -> dict:
    """Run ``fn()`` under cProfile.

    ``src`` is the ``repro`` package directory plus a separator.  Returns
    ``result`` (what ``fn`` returned), ``wall_s``, ``buckets`` (self
    seconds per package), ``cumulative`` (seconds of :data:`_CUMULATIVE`)
    and ``calls`` (counts of :data:`_CALLS`).
    """
    prof = cProfile.Profile()
    t0 = time.perf_counter()
    prof.enable()
    try:
        result = fn()
    finally:
        prof.disable()
    wall = time.perf_counter() - t0
    stats = pstats.Stats(prof).stats

    def bucket_of(func):
        filename = func[0]
        if filename == "~" or filename.startswith("<"):
            return "other"
        return _bucket(filename, src)

    shares: dict = {}

    def callers_shares(func, weight_index):
        """Buckets of ``func``'s callers, weighted by the time it spent
        under each (``weight_index`` 2: self time, 3: cumulative)."""
        callers = stats[func][4]
        total = sum(c[weight_index] for c in callers.values())
        if not callers or total <= 0:
            return {"other": 1.0}
        out: dict = defaultdict(float)
        for caller, caller_stats in callers.items():
            for bucket, share in resolve(caller).items():
                out[bucket] += share * caller_stats[weight_index] / total
        return out

    def resolve(func):
        """Where time in ``func`` is charged, as bucket -> share."""
        if func not in shares:
            own = bucket_of(func)
            if own != "other" or func not in stats:
                shares[func] = {own: 1.0}
            else:
                shares[func] = {"other": 1.0}  # stands in while recursing
                shares[func] = callers_shares(func, 3)
        return shares[func]

    # Code outside repro and networkx (builtins, the standard library,
    # numpy) is charged to the package that called it.
    buckets: dict = defaultdict(float)
    for func, (_cc, _nc, tt, _ct, _callers) in stats.items():
        own = bucket_of(func)
        if own != "other":
            buckets[own] += tt
            continue
        for bucket, share in callers_shares(func, 2).items():
            buckets[bucket] += share * tt

    cumulative = {key: 0.0 for key in _CUMULATIVE}
    calls = {key: 0 for key in _CALLS}
    for func, (_cc, nc, _tt, ct, _callers) in stats.items():
        filename, _line, name = func
        for key, (suffix, names) in _CUMULATIVE.items():
            if name in names and filename.endswith(suffix):
                cumulative[key] += ct
        for key, (suffixes, names) in _CALLS.items():
            if name in names and filename.endswith(suffixes):
                calls[key] += nc
    return {"result": result, "wall_s": wall, "buckets": dict(buckets),
            "cumulative": cumulative, "calls": calls}


def median_self_times(span_runs) -> dict:
    """Median over iterations of each span name's self time."""
    per_run = [run.self_times() for run in span_runs]
    names = sorted({name for times in per_run for name in times})
    return {
        name: statistics.median(times.get(name, 0.0) for times in per_run)
        for name in names
    }


def self_checks(span_runs, prof) -> list:
    """Problems with the attribution itself; empty when it adds up.

    Span self times must sum to their iteration span (up to rounding), and
    the profiler's per-package self times to the profiled wall time within
    :data:`ATTRIBUTION_MARGIN`.
    """
    problems = []
    for run in span_runs:
        root = run.spans[0][2] - run.spans[0][1]
        if abs(sum(run.self_times().values()) - root) > 1e-9 + 1e-6 * root:
            problems.append("span self times do not sum to the iteration span")
            break
    attributed = sum(prof["buckets"].values())
    if abs(attributed - prof["wall_s"]) > ATTRIBUTION_MARGIN * prof["wall_s"]:
        problems.append(
            f"profiler self times sum to {attributed:.4f} s, profiled wall "
            f"{prof['wall_s']:.4f} s (margin {ATTRIBUTION_MARGIN:.0%})"
        )
    return problems


def layer_values(out: dict, span_self: dict, prof: dict, base_wall: float) -> dict:
    """Every :data:`PER_LAYER` value of one traced run.

    ``out`` is an iteration's outputs, ``span_self`` the median span self
    times, ``prof`` a :func:`profile` result and ``base_wall`` the untraced
    iteration time.  Layers a workload does not touch read zero.
    """
    buckets = prof["buckets"]
    values = {f"{pkg}.self_s": buckets.get(pkg, 0.0) for pkg in _REPORTED}
    values["other.self_s"] = sum(
        v for pkg, v in buckets.items() if pkg not in _REPORTED
    )
    simulate = span_self.get("simulate", 0.0)
    load = span_self.get("load", 0.0)
    records = out.get("spill_records", 0)
    values.update({
        "simkernel.events": out["events"],
        "simkernel.events_per_s": out["events"] / simulate if simulate else 0.0,
        "entk.tasks_done": out.get("tasks_done", 0),
        "entk.task_failures": out.get("task_failures", 0),
        "build.self_s": span_self.get("build", 0.0),
        "simulate.self_s": simulate,
        "jaws.parse_s": span_self.get("parse", 0.0),
        "jaws.shards": out.get("shards", 0),
        "cws.runs": out.get("runs", 0),
        "obs.spans": out.get("spans", 0),
        "obs.spill_bytes": out.get("spill_bytes", 0),
        "obs.spill_records": records,
        "sink.close_s": span_self.get("sink.close", 0.0),
        "load.self_s": load,
        "load.records_per_s": records / load if load else 0.0,
        "report.render_s": span_self.get("render", 0.0),
        "trace.base_wall_s": base_wall,
        "trace.overhead_ratio": prof["wall_s"] / base_wall,
    })
    values.update(prof["cumulative"])
    values.update(prof["calls"])
    return values
