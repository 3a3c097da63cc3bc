"""Golden-scale E1–E8 traces for the determinism suite.

Each scenario of the registry (:mod:`repro.report.scenarios`) runs at
its ``golden`` scale, traced, and yields its canonical text
(:func:`~repro.report.scenarios.trace_text`): the JSONL trace with
metrics, or for E8, which has no discrete-event trace (the LLM loop is
synchronous), the canonical JSON of its pipeline outcome.  The golden
test hashes these strings against the digests pinned in
``trace_digests.json`` — any refactor that changes a grant order, a
simulated timestamp, or an exported field flips a digest and fails the
suite.

Regenerate the pinned digests (ONLY after an intentional behaviour
change) with::

    PYTHONPATH=src python tests/golden/regen.py
"""

from __future__ import annotations

import numpy as np

from repro.report.scenarios import SCENARIOS, execute, trace_text


def build_traces(only=None) -> dict[str, str]:
    """Build every golden-scale trace; returns ``{bench_id: text}``."""
    # numpy global state hygiene: scenarios use explicit Generators, but
    # reset the legacy global RNG anyway so an accidental np.random.*
    # call inside a scenario cannot couple scenarios to each other.
    np.random.seed(0)
    return {
        bench_id: trace_text(execute(bench_id, "golden"))
        for bench_id in SCENARIOS
        if only is None or bench_id in only
    }


__all__ = ["build_traces"]
