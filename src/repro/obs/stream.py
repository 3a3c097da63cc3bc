"""Constant-memory streaming observability.

The in-memory :class:`~repro.obs.tracer.InMemorySink` retains every
span for the life of the run — exactly right for the paper-scale
scenarios, and an OOM at the million-task open-arrival scale the
roadmap targets.  This module is the other half of the
:class:`~repro.obs.tracer.SpanSink` protocol: sinks and analyses that
observe the span stream *as it happens* and keep only constant-size
state.

Two modes, two guarantees:

- **Exact replay** (:class:`StubSink` / :class:`StubTrace`): finished
  spans are compacted to :class:`SpanStub` records — the eight fields
  the report analyses read, tags reduced to the terminal ``state`` —
  and the unchanged batch analytics run over the stub store.  Verdicts
  are **byte-identical** to the batch path (it *is* the batch code on
  the same values); memory is one compact slot-record per span instead
  of spans + tags + events + instants.
- **Online analytics** (:class:`StreamingAnalytics` over the
  primitives in :mod:`repro.obs.metrics` /
  :class:`~repro.obs.alerts.OnlineRuleEvaluator`): truly O(1) state per
  category — Welford stats, P² quantiles, running straggler flagging,
  peak-concurrency tracking — with documented tolerances
  (``tests/obs/test_online_stats.py``).  This is what the ≥1M-span
  memory gate in CI runs.

:class:`JsonlSpillSink` spills every finished span to segmented JSONL
files (rotation + retention), byte-compatible with
:func:`repro.obs.export.to_jsonl` records, so a constant-memory run
still leaves a trace that :func:`repro.obs.export.tracer_from_jsonl`
reloads losslessly.  :class:`TeeSink` fans the stream out to several
sinks (spill to disk *and* analyze online, in one pass).
"""

from __future__ import annotations

import hashlib
import heapq
import json
import os
import re
import sys
import warnings
from typing import Iterable, Optional

from repro.obs.export import _dumps, instant_record, metric_record, span_record
from repro.obs.metrics import MetricsRegistry, P2Quantile, RunningStats
from repro.obs.tracer import SpanSink, Tracer

__all__ = [
    "SpanStub",
    "StubTrace",
    "StubSink",
    "JsonlSpillSink",
    "SpillCorruptionError",
    "SpillResumeMismatch",
    "TeeSink",
    "OnlineConcurrency",
    "OnlineDurationStats",
    "OnlineStragglers",
    "StreamingAnalytics",
    "replay_jsonl",
    "scan_spill",
    "tracer_from_segments",
]


# -- compact span store (exact mode) ----------------------------------------------


class SpanStub:
    """A finished (or drained-open) span compacted to its analysis fields.

    Everything :mod:`repro.obs.analyze`, :mod:`repro.obs.alerts` and
    :mod:`repro.report` read from a span survives: identity, hierarchy,
    classification, interval, and the terminal ``state`` tag
    (``failed_tasks`` counts it).  Free-form tags, point events and the
    back-reference to the tracer are dropped — that is where the memory
    goes in a real trace.
    """

    __slots__ = (
        "span_id",
        "parent_id",
        "name",
        "category",
        "component",
        "start",
        "end",
        "tags",
    )

    def __init__(
        self,
        span_id: int,
        parent_id: Optional[int],
        name: str,
        category: str,
        component: str,
        start: float,
        end: Optional[float],
        state=None,
    ):
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = sys.intern(name)
        self.category = sys.intern(category)
        self.component = sys.intern(component)
        self.start = start
        self.end = end
        self.tags = {} if state is None else {"state": state}

    @classmethod
    def from_span(cls, span) -> "SpanStub":
        return cls(
            span_id=span.span_id,
            parent_id=span.parent_id,
            name=span.name,
            category=span.category,
            component=span.component,
            start=span.start,
            end=span.end,
            state=span.tags.get("state"),
        )

    @classmethod
    def from_record(cls, record: dict) -> "SpanStub":
        """Build from one :func:`~repro.obs.export.span_record` dict."""
        end = record.get("t1")
        return cls(
            span_id=record["id"],
            parent_id=record.get("parent"),
            name=record["name"],
            category=record.get("cat", ""),
            component=record.get("comp", ""),
            start=float(record["t0"]),
            end=None if end is None else float(end),
            state=(record.get("tags") or {}).get("state"),
        )

    @property
    def finished(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> Optional[float]:
        return None if self.end is None else self.end - self.start

    def overlaps(self, t0: float, t1: float) -> bool:
        end = self.end if self.end is not None else float("inf")
        return self.start <= t1 and end >= t0

    def __repr__(self) -> str:
        dur = f"{self.duration:.3f}s" if self.end is not None else "open"
        return (
            f"<SpanStub #{self.span_id} {self.category}:{self.name!r} "
            f"@{self.component} {dur}>"
        )


class StubTrace:
    """A Tracer-shaped view over a :class:`SpanStub` store.

    Quacks enough like a :class:`~repro.obs.tracer.Tracer` for
    :class:`~repro.obs.query.TraceQuery` and everything built on it —
    ``spans`` (id-ordered stubs), empty ``instants``, a metrics
    registry — while ``enabled = False`` keeps post-hoc passes (alert
    recording) from trying to write spans back.  This is how the
    ``--stream`` report path runs the *unchanged* batch analytics and
    still produces byte-identical verdicts.
    """

    enabled = False
    trace_kernel = False

    def __init__(self, spans=None, metrics: Optional[MetricsRegistry] = None):
        self.spans: list[SpanStub] = list(spans or [])
        self.instants: list = []
        self.metrics = metrics if metrics is not None else MetricsRegistry()

    @classmethod
    def from_tracer(cls, tracer) -> "StubTrace":
        """Compact a retained in-memory trace (shares its registry)."""
        return cls(
            spans=[SpanStub.from_span(s) for s in tracer.spans],
            metrics=tracer.metrics,
        )

    @classmethod
    def from_jsonl(cls, lines: Iterable[str]) -> "StubTrace":
        """Stream-parse JSONL lines into a stub store.

        Accepts any iterable of lines (an open file streams without
        materializing the text); span records compact to stubs, metric
        records land in the registry, instants are skipped (no report
        analysis reads them).
        """
        from repro.obs.export import metric_from_record

        trace = cls()
        for lineno, line in enumerate(lines, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"line {lineno} is not valid JSON: {exc}"
                ) from exc
            kind = record.get("type")
            if kind == "span":
                trace.spans.append(SpanStub.from_record(record))
            elif kind == "metric":
                trace.metrics.register(
                    metric_from_record(record),
                    component=record.get("comp", ""),
                )
            elif kind != "instant":
                raise ValueError(f"line {lineno}: unknown record type {kind!r}")
        trace.spans.sort(key=lambda s: s.span_id)
        return trace

    @classmethod
    def from_jsonl_path(cls, path) -> "StubTrace":
        with open(path) as fh:
            return cls.from_jsonl(fh)

    def query(self):
        from repro.obs.query import TraceQuery

        return TraceQuery(self)

    def open_spans(self) -> list:
        return [s for s in self.spans if s.end is None]

    def __repr__(self) -> str:
        return f"<StubTrace spans={len(self.spans)} metrics={len(self.metrics)}>"


class StubSink(SpanSink):
    """Collect :class:`SpanStub` records as spans finish.

    The live-run counterpart of :meth:`StubTrace.from_tracer`: full
    :class:`~repro.obs.tracer.Span` objects (tags, events) become
    garbage as soon as the engine drops them, and only the compact stub
    survives.  ``close()`` drains still-open spans so end-of-run
    analyses see the same population the in-memory sink would.
    """

    def __init__(self):
        self.stubs: list[SpanStub] = []
        self._drained = False

    def on_finish(self, span) -> None:
        self.stubs.append(SpanStub.from_span(span))

    def close(self) -> None:
        if self._drained or self.tracer is None:
            return
        self._drained = True
        for span in self.tracer.open_spans():
            self.stubs.append(SpanStub.from_span(span))

    def trace(self) -> StubTrace:
        """An id-ordered :class:`StubTrace` over the collected stubs."""
        metrics = self.tracer.metrics if self.tracer is not None else None
        return StubTrace(
            spans=sorted(self.stubs, key=lambda s: s.span_id),
            metrics=metrics,
        )


# -- spill-to-disk sink ----------------------------------------------------------


class SpillCorruptionError(ValueError):
    """A spill directory is damaged beyond crash semantics.

    A SIGKILL can only tear the *tail* of the *active* segment (writes
    are sequential and finalized segments were fsynced); a hole or torn
    tail anywhere else means something other than a crash mangled the
    directory, and resuming over it would silently corrupt the trace.
    """


class SpillResumeMismatch(RuntimeError):
    """Resumed re-execution diverged from the bytes already on disk.

    Raised when the suppress-and-verify prefix hash of a resumed run
    does not match the surviving spill segments — the scenario is not
    deterministic (or the directory belongs to a different run), so the
    resume must not be trusted.
    """


_SEGMENT_RE = re.compile(r"^segment-(\d{5})\.jsonl(\.part)?$")


def _scan_segment_names(directory) -> list[tuple[int, str]]:
    """Sorted ``(index, filename)`` for every segment, oldest first."""
    out = []
    for name in os.listdir(str(directory)):
        m = _SEGMENT_RE.match(name)
        if m:
            out.append((int(m.group(1)), name))
    out.sort()
    return out


def scan_spill(directory) -> dict:
    """Inspect a spill directory without modifying it.

    Returns ``{"segments": [(idx, path, n_lines)], "records": total
    complete lines, "sha256": hash over the complete-line bytes in
    segment order, "torn_tail_bytes": bytes after the last newline of
    the final segment (0 when clean)}``.  A torn tail anywhere but the
    final segment raises :class:`SpillCorruptionError`, as does a gap
    in the segment index sequence.
    """
    directory = str(directory)
    names = _scan_segment_names(directory)
    for pos, (idx, _name) in enumerate(names):
        if idx != names[0][0] + pos:
            raise SpillCorruptionError(
                f"segment index gap in {directory!r}: {[n for _, n in names]}"
            )
    hasher = hashlib.sha256()
    segments = []
    records = 0
    torn_tail = 0
    for pos, (idx, name) in enumerate(names):
        path = os.path.join(directory, name)
        with open(path, "rb") as fh:
            data = fh.read()
        cut = data.rfind(b"\n") + 1  # 0 when no newline at all
        if cut != len(data):
            if pos != len(names) - 1:
                raise SpillCorruptionError(
                    f"torn tail in non-final segment {name!r}"
                )
            torn_tail = len(data) - cut
            data = data[:cut]
        n_lines = data.count(b"\n")
        hasher.update(data)
        records += n_lines
        segments.append((idx, path, n_lines))
    return {
        "segments": segments,
        "records": records,
        "sha256": hasher.hexdigest(),
        "torn_tail_bytes": torn_tail,
    }


def _fsync_dir(directory: str) -> None:
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class JsonlSpillSink(SpanSink):
    """Spill finished spans to segmented JSONL files, crash-safely.

    Records are byte-identical to :func:`repro.obs.export.to_jsonl`
    lines (same dict shapes, same compact JSON encoding), written in
    event order: a span's line lands when it *finishes*, instants when
    they occur.  ``close()`` drains still-open spans (``"t1": null``)
    and appends the metric registry, so concatenating the segments and
    reloading through :func:`~repro.obs.export.tracer_from_jsonl`
    reproduces the trace exactly (the loader orders spans by id).

    Segments rotate every ``segment_records`` lines.  The **active**
    segment is written as ``segment-00000.jsonl.part``; on rotation (or
    ``close()``) it is flushed, fsynced, and atomically renamed to
    ``segment-00000.jsonl`` — so a ``.jsonl`` name is a *durability
    promise*: its bytes survived a crash.  A SIGKILL can lose only the
    buffered tail of the ``.part`` segment, which readers repair (the
    torn final line is dropped and reported, never raised on).  With
    ``retain_segments=N`` only the newest N survive — bounded *disk*,
    not just bounded memory, for week-long simulated runs where only
    the recent window matters.

    :meth:`reopen` resumes an interrupted spill: the surviving prefix
    is re-verified byte-for-byte (suppress-and-verify) while the
    resumed run replays it, then appending continues mid-segment.
    """

    def __init__(
        self,
        directory,
        segment_records: int = 100_000,
        retain_segments: Optional[int] = None,
    ):
        if segment_records < 1:
            raise ValueError("segment_records must be >= 1")
        if retain_segments is not None and retain_segments < 1:
            raise ValueError("retain_segments must be >= 1 (or None)")
        self.directory = str(directory)
        self.segment_records = int(segment_records)
        self.retain_segments = retain_segments
        os.makedirs(self.directory, exist_ok=True)
        self._fh = None
        self._segment_idx = -1
        self._records_in_segment = 0
        self._closed = False
        #: Totals over the sink's lifetime (rotation never resets them).
        self.total_records = 0
        # Resume (suppress-and-verify) state; see :meth:`reopen`.
        self._suppress_remaining = 0
        self._expected_sha: Optional[str] = None
        self._hasher = None
        #: Bytes dropped from a torn ``.part`` tail during reopen.
        self.repaired_tail_bytes = 0

    @classmethod
    def reopen(
        cls,
        directory,
        segment_records: int = 100_000,
        retain_segments: Optional[int] = None,
    ) -> "JsonlSpillSink":
        """Resume spilling into a directory a crashed run left behind.

        Repairs the torn tail of the final segment in place (truncating
        to the last complete line), then arms suppress-and-verify mode:
        the first N records written to the reopened sink — the resumed
        run deterministically re-emitting the prefix — are *not*
        re-written; they are hashed and compared against the surviving
        bytes, and :class:`SpillResumeMismatch` is raised the moment the
        replayed prefix diverges.  Record N+1 onward appends normally,
        continuing mid-segment.
        """
        if retain_segments is not None:
            raise ValueError(
                "reopen() needs the full segment history to verify the "
                "prefix; retain_segments is not supported on resume"
            )
        sink = cls(directory, segment_records=segment_records)
        info = scan_spill(sink.directory)
        if info["torn_tail_bytes"]:
            idx, path, _n = info["segments"][-1]
            with open(path, "rb") as fh:
                data = fh.read()
            with open(path, "wb") as fh:
                fh.write(data[: len(data) - info["torn_tail_bytes"]])
                fh.flush()
                os.fsync(fh.fileno())
            sink.repaired_tail_bytes = info["torn_tail_bytes"]
        if info["segments"]:
            sink._segment_idx = info["segments"][-1][0]
            sink._records_in_segment = info["segments"][-1][2]
        sink._suppress_remaining = info["records"]
        sink._expected_sha = info["sha256"]
        sink._hasher = hashlib.sha256()
        if sink._suppress_remaining == 0:
            sink._finish_suppression()
        return sink

    # -- segment bookkeeping -----------------------------------------------

    def _segment_path(self, idx: int) -> str:
        return os.path.join(self.directory, f"segment-{idx:05d}.jsonl")

    def _part_path(self, idx: int) -> str:
        return self._segment_path(idx) + ".part"

    def segments(self) -> list[str]:
        """Paths of the segments on disk, oldest first (incl. active)."""
        return [
            os.path.join(self.directory, name)
            for _idx, name in _scan_segment_names(self.directory)
        ]

    def cursor(self) -> dict:
        """Checkpointable position: total records + segment layout."""
        return {
            "records": self.total_records,
            "segment": self._segment_idx,
            "in_segment": self._records_in_segment,
        }

    def sync(self) -> None:
        """Flush and fsync the active segment (a durability point).

        The checkpoint coordinator calls this before writing a
        snapshot, so every record the snapshot's spill cursor counts is
        actually on disk when a later crash strikes.
        """
        if self._fh is not None:
            self._fh.flush()
            os.fsync(self._fh.fileno())

    def _finalize_active(self) -> None:
        """Promote the active ``.part`` to a durable ``.jsonl``."""
        idx = self._segment_idx
        if self._fh is not None:
            self._fh.flush()
            os.fsync(self._fh.fileno())
            self._fh.close()
            self._fh = None
            os.replace(self._part_path(idx), self._segment_path(idx))
            _fsync_dir(self.directory)
        elif idx >= 0 and os.path.exists(self._part_path(idx)):
            # Resumed sink that never wrote into its inherited .part.
            os.replace(self._part_path(idx), self._segment_path(idx))
            _fsync_dir(self.directory)

    def _rotate(self) -> None:
        self._finalize_active()
        self._segment_idx += 1
        self._records_in_segment = 0
        self._fh = open(self._part_path(self._segment_idx), "w")
        if self.retain_segments is not None:
            keep_from = max(0, self._segment_idx - self.retain_segments + 1)
            for idx, name in _scan_segment_names(self.directory):
                if idx < keep_from:
                    os.remove(os.path.join(self.directory, name))

    def _open_for_append(self) -> None:
        """Continue writing the inherited final segment after a resume."""
        idx = self._segment_idx
        if os.path.exists(self._segment_path(idx)):
            # Crash landed after finalization: demote back to active.
            os.replace(self._segment_path(idx), self._part_path(idx))
            _fsync_dir(self.directory)
        self._fh = open(self._part_path(idx), "a")

    def _finish_suppression(self) -> None:
        got = self._hasher.hexdigest() if self._hasher is not None else None
        expected = self._expected_sha
        self._suppress_remaining = 0
        self._hasher = None
        self._expected_sha = None
        if expected is not None and got != expected:
            raise SpillResumeMismatch(
                f"resumed run diverged from the spill on disk in "
                f"{self.directory!r}: prefix sha256 {got} != {expected}"
            )

    def _write(self, record: dict) -> None:
        if self._closed:
            raise RuntimeError("JsonlSpillSink is closed")
        if self._suppress_remaining > 0:
            self._hasher.update((_dumps(record) + "\n").encode())
            self.total_records += 1
            self._suppress_remaining -= 1
            if self._suppress_remaining == 0:
                self._finish_suppression()
            return
        if self._fh is None and self._records_in_segment > 0:
            # First post-resume record with room left mid-segment.
            if self._records_in_segment < self.segment_records:
                self._open_for_append()
            else:
                self._rotate()
        elif self._fh is None or self._records_in_segment >= self.segment_records:
            self._rotate()
        self._fh.write(_dumps(record))
        self._fh.write("\n")
        self._records_in_segment += 1
        self.total_records += 1

    # -- sink hooks ---------------------------------------------------------

    def on_finish(self, span) -> None:
        self._write(span_record(span))

    def on_instant(self, instant) -> None:
        self._write(instant_record(instant))

    def close(self) -> None:
        if self._closed:
            return
        if self.tracer is not None:
            for span in self.tracer.open_spans():
                self._write(span_record(span))
            for (comp, _name), metric in self.tracer.metrics.items():
                self._write(metric_record(comp, metric))
        self._finalize_active()
        self._closed = True

    def read_text(self) -> str:
        """Concatenated contents of the retained segments."""
        if self._fh is not None:
            self._fh.flush()
        parts = []
        for path in self.segments():
            with open(path) as fh:
                parts.append(fh.read())
        return "".join(parts)

    def __repr__(self) -> str:
        return (
            f"<JsonlSpillSink {self.directory!r} "
            f"segment={self._segment_idx} records={self.total_records}>"
        )


def _split_torn_tail(text: str) -> tuple[str, str]:
    """Split off a torn (incomplete) trailing line, if any.

    Returns ``(clean_text, torn_tail)``.  A trailing chunk without a
    newline that still parses as JSON is a record whose newline alone
    was lost — kept, not dropped.
    """
    if not text or text.endswith("\n"):
        return text, ""
    cut = text.rfind("\n") + 1
    tail = text[cut:]
    try:
        json.loads(tail)
    except json.JSONDecodeError:
        return text[:cut], tail
    return text + "\n", ""


def tracer_from_segments(directory, on_truncated=None) -> Tracer:
    """Reload a spill directory into an in-memory :class:`Tracer`.

    Tolerates the one kind of damage a crash can cause — a torn final
    line in the last (``.part``) segment: the partial line is dropped
    and *reported*, via ``on_truncated({"directory", "segment",
    "dropped_bytes"})`` when given, else a :class:`UserWarning`.
    Damage anywhere else still raises.
    """
    from repro.obs.export import tracer_from_jsonl

    directory = str(directory)
    names = _scan_segment_names(directory)
    parts = []
    for _idx, name in names:
        with open(os.path.join(directory, name)) as fh:
            parts.append(fh.read())
    if parts:
        clean, torn = _split_torn_tail(parts[-1])
        if torn:
            parts[-1] = clean
            info = {
                "directory": directory,
                "segment": names[-1][1],
                "dropped_bytes": len(torn),
            }
            if on_truncated is not None:
                on_truncated(info)
            else:
                warnings.warn(
                    f"dropped torn final line ({len(torn)} bytes) from "
                    f"{names[-1][1]} in {directory!r}",
                    stacklevel=2,
                )
    return tracer_from_jsonl("".join(parts))


class TeeSink(SpanSink):
    """Fan the span stream out to several sinks in order."""

    def __init__(self, *sinks: SpanSink):
        self.sinks = list(sinks)

    @property
    def spans(self):
        """Delegate to the first retained-span sink in the fanout, so a
        tee that includes an :class:`~repro.obs.tracer.InMemorySink`
        still serves ``tracer.spans`` (getattr sees the AttributeError
        as "not retained" when no inner sink keeps a list)."""
        for sink in self.sinks:
            spans = getattr(sink, "spans", None)
            if spans is not None:
                return spans
        raise AttributeError("no sink in this tee retains spans")

    @property
    def instants(self):
        for sink in self.sinks:
            instants = getattr(sink, "instants", None)
            if instants is not None:
                return instants
        raise AttributeError("no sink in this tee retains instants")

    def attach(self, tracer) -> None:
        self.tracer = tracer
        for sink in self.sinks:
            sink.attach(tracer)

    def on_start(self, span) -> None:
        for sink in self.sinks:
            sink.on_start(span)

    def on_finish(self, span) -> None:
        for sink in self.sinks:
            sink.on_finish(span)

    def on_instant(self, instant) -> None:
        for sink in self.sinks:
            sink.on_instant(instant)

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()


# -- online analytics ------------------------------------------------------------


class OnlineConcurrency:
    """Constant-memory open-span concurrency tracking.

    Feed ``step(t, +1)`` at span start and ``step(t, -1)`` at span end,
    in time order.  Same-time deltas merge before sampling (the batch
    :meth:`~repro.obs.query.TraceQuery.concurrency` collapse), so
    ``peak`` / ``first_peak`` / ``last_peak`` match the batch series'
    ``peak_times`` convention exactly; the running integral gives
    time-averaged concurrency without retaining change points.
    """

    def __init__(self):
        self._level = 0.0
        self._pending_t: Optional[float] = None
        self._committed_t: Optional[float] = None
        self._committed_level = 0.0
        self._integral = 0.0
        self.t0: Optional[float] = None
        self.peak = 0.0
        self.first_peak: Optional[float] = None
        self.last_peak: Optional[float] = None

    def step(self, t: float, delta: float) -> None:
        t = float(t)
        if self._pending_t is not None and t < self._pending_t:
            raise ValueError(
                f"non-monotonic step: t={t} < pending t={self._pending_t}"
            )
        if self._pending_t is None:
            self.t0 = t
        elif t > self._pending_t:
            self._commit()
        self._pending_t = t
        self._level += delta

    def _commit(self) -> None:
        t, level = self._pending_t, self._level
        if self._committed_t is not None:
            self._integral += self._committed_level * (t - self._committed_t)
        self._committed_t = t
        self._committed_level = level
        if level > self.peak:
            self.peak = level
            self.first_peak = t
            self.last_peak = t
        elif level == self.peak and self.peak > 0:
            self.last_peak = t

    def flush(self) -> None:
        """Commit the trailing same-time batch (call before reading)."""
        if self._pending_t is not None and (
            self._committed_t is None or self._pending_t > self._committed_t
        ):
            self._commit()

    @property
    def current(self) -> float:
        return self._level

    def time_average(self, t_end: Optional[float] = None) -> float:
        self.flush()
        if self._committed_t is None or self.t0 is None:
            return 0.0
        integral = self._integral
        t_end = self._committed_t if t_end is None else float(t_end)
        if t_end > self._committed_t:
            integral += self._committed_level * (t_end - self._committed_t)
        span = t_end - self.t0
        return integral / span if span > 0 else self._committed_level

    def __repr__(self) -> str:
        return f"<OnlineConcurrency level={self._level} peak={self.peak}>"


class OnlineDurationStats:
    """Per-category duration statistics in O(categories) memory."""

    def __init__(self, quantiles: Iterable[float] = (0.5, 0.9, 0.99)):
        self.quantiles = tuple(sorted(set(float(q) for q in quantiles)))
        self._cats: dict[str, tuple] = {}

    def add(self, category: str, duration: float) -> None:
        entry = self._cats.get(category)
        if entry is None:
            entry = self._cats[category] = (
                RunningStats(),
                {p: P2Quantile(p) for p in self.quantiles},
            )
        stats, ests = entry
        stats.add(duration)
        for est in ests.values():
            est.add(duration)

    def stats(self, category: str) -> Optional[RunningStats]:
        entry = self._cats.get(category)
        return entry[0] if entry is not None else None

    def quantile(self, category: str, p: float) -> Optional[float]:
        entry = self._cats.get(category)
        if entry is None:
            return None
        est = entry[1].get(float(p))
        return est.value if est is not None else None

    def to_dict(self) -> dict:
        out = {}
        for category in sorted(self._cats):
            stats, ests = self._cats[category]
            doc = stats.to_dict()
            for p, est in ests.items():
                doc[f"p{int(round(p * 100))}"] = est.value
            out[category] = doc
        return out

    def __repr__(self) -> str:
        return f"<OnlineDurationStats categories={len(self._cats)}>"


class _StragglerGroup:
    __slots__ = ("n", "median", "absdev")

    def __init__(self):
        self.n = 0
        self.median = P2Quantile(0.5)
        self.absdev = P2Quantile(0.5)  # running estimate of the MAD


class OnlineStragglers:
    """Running median+MAD straggler flagging as spans close.

    The streaming analogue of
    :func:`repro.obs.analyze.find_stragglers`: group by ``(category,
    component)``, estimate the group median and the median absolute
    deviation with P² quantile trackers, and flag a closing span whose
    modified z-score ``excess / (1.4826 · MAD)`` exceeds ``threshold``
    (relative test when the MAD estimate is ~0, exactly like batch).
    Flags are *online decisions* — made against the estimates at close
    time, the way a live pager would — so early spans judge against
    less history than the batch pass uses; the equivalence tests bound
    the disagreement on controlled outlier injections.
    """

    def __init__(
        self,
        threshold: float = 3.5,
        rel_threshold: float = 0.5,
        min_group: int = 4,
        min_excess_s: float = 0.0,
        max_flagged: int = 1000,
    ):
        self.threshold = float(threshold)
        self.rel_threshold = float(rel_threshold)
        self.min_group = int(min_group)
        self.min_excess_s = float(min_excess_s)
        self.max_flagged = int(max_flagged)
        self._groups: dict[tuple, _StragglerGroup] = {}
        self._flagged: list = []

    def add(self, span) -> Optional[object]:
        """Observe one finished span; returns a Straggler when flagged."""
        from repro.obs.analyze import Straggler

        duration = span.end - span.start
        key = (span.category, span.component)
        group = self._groups.get(key)
        if group is None:
            group = self._groups[key] = _StragglerGroup()
        group.median.add(duration)
        group.n += 1
        med = group.median.value
        group.absdev.add(abs(duration - med))
        if group.n < self.min_group:
            return None
        excess = duration - med
        if excess <= max(self.min_excess_s, 0.0):
            return None
        mad = group.absdev.value
        scale = 1.4826 * mad
        if scale > 1e-12:
            score = excess / scale
            if score <= self.threshold:
                return None
        else:
            if med <= 0 or excess / med <= self.rel_threshold:
                return None
            score = float("inf")
        straggler = Straggler(
            span_id=span.span_id,
            name=span.name,
            category=span.category,
            component=span.component,
            duration=duration,
            median=med,
            mad=mad,
            score=score,
        )
        self._flagged.append(straggler)
        if len(self._flagged) > 4 * self.max_flagged:
            self._flagged.sort(key=lambda s: (-s.excess, s.span_id))
            del self._flagged[self.max_flagged :]
        return straggler

    def result(self) -> list:
        """Flagged stragglers, worst excess first (batch sort order)."""
        out = sorted(self._flagged, key=lambda s: (-s.excess, s.span_id))
        return out[: self.max_flagged]

    def __repr__(self) -> str:
        return (
            f"<OnlineStragglers groups={len(self._groups)} "
            f"flagged={len(self._flagged)}>"
        )


class StreamingAnalytics(SpanSink):
    """One-pass run analytics as a span sink.

    Attach (alone or in a :class:`TeeSink`) and every quantity below is
    maintained incrementally, in memory bounded by the number of
    distinct categories — never by the number of spans:

    - per-category duration statistics (count/mean/min/max + P²
      quantiles) via :class:`OnlineDurationStats`;
    - straggler flags via :class:`OnlineStragglers`;
    - open-span concurrency (optionally restricted to one
      category/component) via :class:`OnlineConcurrency`;
    - SLO rules via :class:`~repro.obs.alerts.OnlineRuleEvaluator`,
      with the ``on_alert`` live-paging hook;
    - the run window and span/failure totals.

    ``summary()`` returns the whole state as a JSON-ready dict — the
    payload the CI memory-smoke artifact uploads.
    """

    def __init__(
        self,
        rules: Iterable = (),
        context: Optional[dict] = None,
        on_alert=None,
        concurrency_category: Optional[str] = None,
        concurrency_component: Optional[str] = None,
        quantiles: Iterable[float] = (0.5, 0.9, 0.99),
        straggler_kwargs: Optional[dict] = None,
    ):
        from repro.obs.alerts import OnlineRuleEvaluator

        self.durations = OnlineDurationStats(quantiles=quantiles)
        self.stragglers = OnlineStragglers(**(straggler_kwargs or {}))
        self.concurrency = OnlineConcurrency()
        self.evaluator = OnlineRuleEvaluator(
            list(rules), context=context, on_alert=on_alert
        )
        self._conc_cat = concurrency_category
        self._conc_comp = concurrency_component
        self.n_started = 0
        self.n_finished = 0
        self.n_failed = 0
        self.t_first: Optional[float] = None
        self.t_last: Optional[float] = None

    def _tracks(self, span) -> bool:
        if self._conc_cat is not None and span.category != self._conc_cat:
            return False
        if self._conc_comp is not None and span.component != self._conc_comp:
            return False
        return True

    def on_start(self, span) -> None:
        self.n_started += 1
        if self.t_first is None or span.start < self.t_first:
            self.t_first = span.start
        if self._tracks(span):
            self.concurrency.step(span.start, +1.0)
        self.evaluator.observe_start(span)

    def on_finish(self, span) -> None:
        self.n_finished += 1
        if self.t_last is None or span.end > self.t_last:
            self.t_last = span.end
        if str(span.tags.get("state", "")).upper() == "FAILED":
            self.n_failed += 1
        self.durations.add(span.category, span.end - span.start)
        self.stragglers.add(span)
        if self._tracks(span):
            self.concurrency.step(span.end, -1.0)
        self.evaluator.observe_finish(span)

    def finalize_alerts(self, context: Optional[dict] = None):
        """End-of-run :class:`~repro.obs.alerts.AlertReport`."""
        registry = self.tracer.metrics if self.tracer is not None else None
        return self.evaluator.finalize(context=context, registry=registry)

    @property
    def makespan(self) -> float:
        if self.t_first is None or self.t_last is None:
            return 0.0
        return self.t_last - self.t_first

    def summary(self) -> dict:
        self.concurrency.flush()
        doc = {
            "spans_started": self.n_started,
            "spans_finished": self.n_finished,
            "failed": self.n_failed,
            "window": [self.t_first or 0.0, self.t_last or 0.0],
            "makespan": self.makespan,
            "concurrency": {
                "peak": self.concurrency.peak,
                "first_peak": self.concurrency.first_peak,
                "last_peak": self.concurrency.last_peak,
                "time_average": self.concurrency.time_average(self.t_last),
            },
            "categories": self.durations.to_dict(),
            "stragglers": [s.to_dict() for s in self.stragglers.result()[:10]],
        }
        if self.evaluator.rules:
            try:
                doc["alerts"] = self.finalize_alerts().to_dict()
            except Exception as exc:  # unresolvable rule: report, don't die
                doc["alerts"] = {"error": str(exc)}
        return doc

    def __repr__(self) -> str:
        return (
            f"<StreamingAnalytics started={self.n_started} "
            f"finished={self.n_finished}>"
        )


# -- trace replay ----------------------------------------------------------------


def replay_jsonl(lines: Iterable[str], *sinks: SpanSink, on_truncated=None) -> int:
    """Replay a JSONL trace through sinks as a live event stream.

    Span records (id order = start order in an exported trace) are
    re-interleaved into lifecycle order: each span's ``on_start`` fires
    in start order, and its ``on_finish`` fires when simulated time
    passes its end — exactly the callback sequence a live run would
    have produced.  A heap of open spans keyed by end time does the
    interleaving; memory is O(max concurrently open), not O(trace).

    A torn *final* line (the tail a crashed writer left behind) is
    skipped and reported — through ``on_truncated({"lineno",
    "dropped_bytes"})`` when given, else a :class:`UserWarning`; a
    malformed line anywhere *before* the end still raises
    ``json.JSONDecodeError`` (that is corruption, not a crash).

    Returns the number of spans replayed.  Instants and metric records
    are skipped (replay targets span analytics); ``close()`` is called
    on every sink at the end.
    """
    open_heap: list[tuple] = []  # (end, span_id, stub)
    n = 0

    def drain(up_to: float) -> None:
        while open_heap and open_heap[0][0] <= up_to:
            _, _, stub = heapq.heappop(open_heap)
            for sink in sinks:
                sink.on_finish(stub)

    pending_error = None  # (lineno, raw line, exception)
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        if pending_error is not None:
            # A later line exists, so the bad line was not a torn tail.
            raise pending_error[2]
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            pending_error = (lineno, line, exc)
            continue
        if record.get("type") != "span":
            continue
        stub = SpanStub.from_record(record)
        n += 1
        drain(stub.start)
        for sink in sinks:
            sink.on_start(stub)
        if stub.end is not None:
            heapq.heappush(open_heap, (stub.end, stub.span_id, stub))
    if pending_error is not None:
        info = {
            "lineno": pending_error[0],
            "dropped_bytes": len(pending_error[1]),
        }
        if on_truncated is not None:
            on_truncated(info)
        else:
            warnings.warn(
                f"dropped torn final line {info['lineno']} "
                f"({info['dropped_bytes']} bytes) during replay",
                stacklevel=2,
            )
    drain(float("inf"))
    for sink in sinks:
        sink.close()
    return n
