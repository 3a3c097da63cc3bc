"""Shared benchmark plumbing.

Every benchmark regenerates one table or figure from the paper.  The
rendered output goes to ``benchmarks/results/<name>.txt`` (so the
artifacts survive pytest's output capture) and to stdout (visible with
``pytest -s``).
"""

from __future__ import annotations

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture
def report():
    """``report(name, text)`` — persist and print a rendered result."""

    def _report(name: str, text: str) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        path = RESULTS_DIR / f"{name}.txt"
        path.write_text(text + "\n")
        print(f"\n=== {name} ===\n{text}\n[saved to {path}]")

    return _report


@pytest.fixture
def verdict():
    """``verdict(run)`` — machine verdict for a registry scenario run.

    Builds the scenario's :class:`repro.report.RunReport` (tracer,
    headline scalars, SLO rules) from a
    :func:`repro.report.scenarios.execute` result, writes the
    ``BENCH_<id>.json`` document to ``benchmarks/results/`` (the file
    CI uploads and gates on), and returns the report so the test can
    assert on it.
    """
    from repro.report import scenarios, write_verdict

    def _verdict(run):
        rep = scenarios.report(run)
        path = write_verdict(rep, RESULTS_DIR)
        print(f"\n[{rep.bench_id} verdict: {rep.status} -> {path}]")
        return rep

    return _verdict
