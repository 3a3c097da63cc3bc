"""Golden determinism regression: golden-scale E1–E8 traces, byte-pinned.

Every registry scenario at its golden scale exports a JSONL trace (E8: a
canonical JSON headline) whose SHA-256 digest is pinned in
``trace_digests.json``.  The digests were captured from the seed
implementation *before* the scheduling/primitive optimizations landed —
a digest mismatch means a grant order, simulated timestamp, or exported
field changed, which the perf work explicitly must not do.

If a digest changes because of an *intentional* behaviour change,
regenerate with ``PYTHONPATH=src python tests/golden/regen.py`` and say
so in the commit message.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.report.scenarios import SCENARIOS
from tests.golden.traces import build_traces

PINNED = json.loads(
    (Path(__file__).parent / "trace_digests.json").read_text()
)


def test_pinned_set_matches_builders():
    assert set(PINNED) == set(SCENARIOS)


@pytest.mark.parametrize("bench_id", sorted(SCENARIOS))
def test_trace_digest(bench_id):
    text = build_traces(only={bench_id})[bench_id]
    digest = hashlib.sha256(text.encode()).hexdigest()
    pinned = PINNED[bench_id]
    assert len(text.encode()) == pinned["bytes"], (
        f"{bench_id}: trace size changed "
        f"({len(text.encode())} vs pinned {pinned['bytes']} bytes)"
    )
    assert digest == pinned["sha256"], (
        f"{bench_id}: trace content drifted from the pinned golden digest; "
        "a grant order / timestamp / export field changed"
    )
