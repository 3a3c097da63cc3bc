"""Typed load errors for JSONL traces, and a loader fuzz over the E7 trace.

Both loaders — :func:`repro.obs.export.tracer_from_jsonl` (full spans)
and :meth:`repro.obs.stream.StubTrace.from_jsonl` (compact stubs) — must
either load a trace or raise :class:`TraceFormatError` naming the bad
line; a raw ``KeyError``/``IndexError``/``TypeError`` is a bug.
"""

import functools
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.obs.export import TraceFormatError, to_jsonl, tracer_from_jsonl
from repro.obs.stream import StubTrace

SPAN = {
    "type": "span", "id": 0, "parent": None, "name": "task", "cat": "entk.exec",
    "comp": "agent", "t0": 1.0, "t1": 2.0, "tags": {"state": "done"},
    "events": [],
}
INSTANT = {"type": "instant", "name": "submit", "cat": "rm.job", "comp": "batch",
           "t": 0.5, "tags": {}}


def _text(*records) -> str:
    return "".join(json.dumps(r) + "\n" for r in records)


LOADERS = [
    pytest.param(tracer_from_jsonl, id="tracer_from_jsonl"),
    pytest.param(
        lambda text: StubTrace.from_jsonl(text.splitlines(keepends=True)),
        id="StubTrace.from_jsonl",
    ),
]


@pytest.mark.parametrize("load", LOADERS)
class TestTraceFormatError:
    def test_is_a_value_error(self, load):
        with pytest.raises(ValueError):
            load(_text(SPAN) + "{oops\n")

    def test_invalid_json(self, load):
        with pytest.raises(TraceFormatError, match="line 2: invalid JSON") as err:
            load(_text(SPAN) + "{oops\n")
        assert (err.value.line, err.value.field) == (2, None)

    def test_unknown_record_type(self, load):
        with pytest.raises(TraceFormatError, match="unknown record type") as err:
            load(_text(SPAN, dict(SPAN, id=1, type="spam")))
        assert (err.value.line, err.value.field) == (2, "type")

    def test_missing_field(self, load):
        bad = {k: v for k, v in SPAN.items() if k != "name"}
        with pytest.raises(TraceFormatError) as err:
            load(_text(INSTANT, bad))
        assert str(err.value) == "line 2: missing field 'name'"
        assert (err.value.line, err.value.field) == (2, "name")

    def test_non_numeric_time(self, load):
        with pytest.raises(TraceFormatError, match="'t0' is not a number") as err:
            load(_text(dict(SPAN, t0="soon")))
        assert (err.value.line, err.value.field) == (1, "t0")

    def test_non_integer_span_id(self, load):
        with pytest.raises(TraceFormatError, match="'id' is not an integer") as err:
            load(_text(SPAN, dict(SPAN, id="1")))
        assert (err.value.line, err.value.field) == (2, "id")

    def test_record_that_is_not_an_object(self, load):
        with pytest.raises(TraceFormatError, match="expected a JSON object") as err:
            load(_text(SPAN) + "[1, 2]\n")
        assert err.value.line == 2

    def test_bad_metric_record(self, load):
        metric = {"type": "metric", "comp": "", "kind": "gauge", "name": "q",
                  "times": [], "values": []}
        with pytest.raises(TraceFormatError) as err:
            load(_text(SPAN, metric))
        assert err.value.line == 2

    def test_non_string_metric_component(self, load):
        # Two metrics whose (component, name) keys cannot be ordered would
        # load, then break the sorted export.
        gauge = {"type": "metric", "comp": "batch", "kind": "gauge", "name": "q",
                 "times": [0.0], "values": [0.0]}
        with pytest.raises(TraceFormatError, match="'comp' is not a string") as err:
            load(_text(gauge, dict(gauge, comp=5)))
        assert (err.value.line, err.value.field) == (2, "comp")


# -- fuzz: single-line mutations of the golden E7 trace ---------------------------


@functools.lru_cache(maxsize=None)
def _e7_lines() -> tuple:
    from repro.report.scenarios import execute, trace_text

    return tuple(trace_text(execute("E7", "golden")).splitlines())


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=6,
)


@st.composite
def mutated_traces(draw):
    """``(text, lines)``: E7 with one line mutated; ``lines`` holds the
    1-based line numbers a load error may blame."""
    lines = list(_e7_lines())
    i = draw(st.integers(0, len(lines) - 1))
    line, record = lines[i], json.loads(lines[i])
    op = draw(st.sampled_from(
        ["drop", "replace", "add", "events", "truncate", "insert", "not_object",
         "delete", "duplicate"]
    ))
    key = draw(st.sampled_from(sorted(record)))
    if op == "drop":
        del record[key]
    elif op == "replace":
        record[key] = draw(json_values)
    elif op == "add":
        record[draw(st.text(max_size=4))] = draw(json_values)
    elif op == "events":
        record["events"] = [draw(st.lists(json_values, min_size=2, max_size=4))]
    if op in ("drop", "replace", "add", "events"):
        lines[i] = json.dumps(record)
    elif op == "truncate":
        lines[i] = line[: draw(st.integers(0, len(line) - 1))]
    elif op == "insert":
        at = draw(st.integers(0, len(line)))
        lines[i] = line[:at] + draw(st.text(min_size=1, max_size=3)) + line[at:]
    elif op == "not_object":
        not_object = json_values.filter(lambda v: not isinstance(v, dict))
        lines[i] = json.dumps(draw(not_object))
    elif op == "delete":
        del lines[i]
    elif op == "duplicate":
        lines.insert(i, line)
    return "\n".join(lines) + "\n", {i + 1, i + 2}


def _stubs(trace) -> str:
    return json.dumps(
        [
            [s.span_id, s.parent_id, s.name, s.category, s.component, s.start,
             s.end, s.tags]
            for s in trace.spans
        ],
        sort_keys=True,
    )


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(mutated_traces())
def test_loaders_raise_typed_errors_or_round_trip(case):
    text, blamable = case
    try:
        canonical = to_jsonl(tracer_from_jsonl(text))
    except TraceFormatError as exc:
        assert exc.line in blamable
        canonical = None
    else:
        assert to_jsonl(tracer_from_jsonl(canonical)) == canonical
    try:
        stubs = StubTrace.from_jsonl(text.splitlines(keepends=True))
    except TraceFormatError as exc:
        assert exc.line in blamable
    else:
        if canonical is not None:
            again = StubTrace.from_jsonl(canonical.splitlines(keepends=True))
            assert _stubs(stubs) == _stubs(again)
