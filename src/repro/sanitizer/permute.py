"""Batch-permutation checker for the golden E1–E8 scenarios.

The calendar-queue kernel dispatches every event scheduled at the same
simulated instant as one batch, in insertion order.  Correct models
must not depend on that order: two events at the same instant have no
causal edge between them, so any batch permutation must produce the
same simulation.  This module re-runs the registry's E1–E8 scenarios
(:mod:`repro.report.scenarios`) at their golden scale with every
same-instant batch reversed or deterministically shuffled
(:class:`repro.sanitizer.core.Sanitizer`'s ``permute`` mode) and
compares the exported traces against an unpermuted baseline built in
the same process.

Permuting a batch legitimately moves two things that are *not*
simulation state: the order trace spans are opened (span ids are
allocated sequentially) and which of several interchangeable workers
picks up which work item (the timeline is identical, only identity
tags swap).  The comparison therefore classifies each permuted trace
into one of four verdicts, from strongest to weakest:

``identical``
    Byte-identical to the baseline.
``reordered``
    Equal after renumbering span ids (parent links are rewritten to
    the parent span's name) and sorting events — same spans, same
    timestamps, same tags; only export order and id assignment moved.
``relabeled``
    Equal after *additionally* renaming interchangeable worker
    identities (``worker`` tags) by their service signature — the
    timeline is identical but symmetric workers swapped roles.
``divergent``
    A timestamp, event, or tag actually changed: real order
    sensitivity.  The report carries the first divergent event with
    surrounding context, in the style of ``tests/golden/regen.py
    --diff``.

Only ``divergent`` fails the check.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.obs import enable_tracing
from repro.sanitizer.core import enable_sanitizer
from repro.simkernel import Environment

#: Permutation modes exercised by default.
MODES = ("reverse", "shuffle")

#: Verdicts that pass the check, strongest first.
PASSING = ("identical", "reordered", "relabeled")

#: Lines of context shown around the first divergent event.
CONTEXT = 3


@dataclass
class PermutationResult:
    """Outcome of one (scenario, permutation-mode) run."""

    bench_id: str
    mode: str
    verdict: str
    #: First-divergence forensics; empty unless ``divergent``.
    detail: str = ""
    #: Same-instant write-write races the sanitizer saw during the run.
    races: list = field(default_factory=list)
    #: Batch-dependent queue-insertion orders: recorded, never fatal —
    #: the verdict above is the end-to-end proof they converged.
    order_warnings: list = field(default_factory=list)
    batches: int = 0
    units: int = 0

    @property
    def passed(self) -> bool:
        return self.verdict in PASSING and not self.races

    def to_json(self) -> dict:
        return {
            "bench_id": self.bench_id,
            "mode": self.mode,
            "verdict": self.verdict,
            "passed": self.passed,
            "detail": self.detail,
            "races": list(self.races),
            "order_warnings": list(self.order_warnings),
            "batches": self.batches,
            "units": self.units,
        }


# -- canonicalization ----------------------------------------------------------


def _parse(text: str) -> list[dict]:
    return [json.loads(line) for line in text.splitlines()]


def _strip_ids(records: list[dict]) -> list[dict]:
    """Replace sequential span ids with structural parent names."""
    names = {
        rec["id"]: rec.get("name", "?")
        for rec in records
        if rec.get("type") == "span" and "id" in rec
    }
    out = []
    for rec in records:
        rec = dict(rec)
        rec.pop("id", None)
        parent = rec.pop("parent", None)
        if parent is not None:
            rec["parent_name"] = names.get(parent, "?")
        out.append(rec)
    return out


def _worker_signature(records: list[dict], label: str) -> tuple:
    sig = []
    for rec in records:
        if rec.get("tags", {}).get("worker") == label:
            sig.append((rec.get("t0", rec.get("t", 0.0)), rec.get("name", "")))
    return tuple(sorted(sig))


def _relabel_workers(records: list[dict]) -> list[dict]:
    """Rename worker identity tags by service signature.

    Interchangeable workers (same spec, idle at the same instant) may
    swap which item each picks up under a batch permutation; the
    timeline is unchanged, so two traces that differ only in such tags
    are equal after renaming each worker by *what it did and when*
    rather than by its allocation-order id.
    """
    labels = {
        rec["tags"]["worker"]
        for rec in records
        if isinstance(rec.get("tags"), dict) and "worker" in rec["tags"]
    }
    ranked = sorted(labels, key=lambda lb: (_worker_signature(records, lb), lb))
    mapping = {label: f"w{idx}" for idx, label in enumerate(ranked)}
    out = []
    for rec in records:
        tags = rec.get("tags")
        if isinstance(tags, dict) and "worker" in tags:
            rec = dict(rec)
            rec["tags"] = dict(tags, worker=mapping[tags["worker"]])
        out.append(rec)
    return out


def _canonical(records: list[dict]) -> list[str]:
    return sorted(json.dumps(rec, sort_keys=True) for rec in records)


def _first_divergence(base: list[str], perm: list[str]) -> str:
    """First divergent event with context, regen.py ``--diff`` style."""
    limit = min(len(base), len(perm))
    idx = next((i for i in range(limit) if base[i] != perm[i]), limit)
    lines = [
        f"first divergent event at index {idx} "
        f"(baseline {len(base)} events, permuted {len(perm)})"
    ]
    for i in range(max(0, idx - CONTEXT), idx):
        lines.append(f"  = [{i}] {base[i]}")
    lines.append(f"  - [{idx}] " + (base[idx] if idx < len(base) else "<end of baseline>"))
    lines.append(f"  + [{idx}] " + (perm[idx] if idx < len(perm) else "<end of permuted>"))
    for i in range(idx + 1, min(idx + 1 + CONTEXT, len(base), len(perm))):
        marker = "=" if base[i] == perm[i] else "!"
        lines.append(f"  {marker} [{i}] {perm[i]}")
    return "\n".join(lines)


def classify(base_text: str, perm_text: str) -> tuple[str, str]:
    """Classify a permuted trace against the baseline.

    Returns ``(verdict, detail)`` where detail is non-empty only for
    ``divergent`` verdicts.
    """
    if base_text == perm_text:
        return "identical", ""
    base = _strip_ids(_parse(base_text))
    perm = _strip_ids(_parse(perm_text))
    if _canonical(base) == _canonical(perm):
        return "reordered", ""
    base_r = _canonical(_relabel_workers(base))
    perm_r = _canonical(_relabel_workers(perm))
    if base_r == perm_r:
        return "relabeled", ""
    return "divergent", _first_divergence(base_r, perm_r)


# -- the check -----------------------------------------------------------------


def _golden_text(bench_id: str, permute: Optional[str] = None, seed: int = 1):
    """Run ``bench_id`` at golden scale; returns its canonical text and,
    when permuted, the sanitizer that drove the run."""
    from repro.report.scenarios import execute, get, trace_text

    env = sanitizer = None
    if permute is not None and get(bench_id).simulated:
        env = Environment()
        enable_tracing(env)
        sanitizer = enable_sanitizer(env, permute=permute, seed=seed)
    return trace_text(execute(bench_id, "golden", env=env)), sanitizer


def check_scenario(
    bench_id: str, modes: Iterable[str] = MODES, seed: int = 1
) -> list[PermutationResult]:
    """Run one scenario unpermuted, then once per permutation mode."""
    base, _ = _golden_text(bench_id)
    results = []
    for mode in modes:
        perm, sanitizer = _golden_text(bench_id, permute=mode, seed=seed)
        verdict, detail = classify(base, perm)
        report = (
            sanitizer.report()
            if sanitizer is not None
            else {"races": [], "order_warnings": [], "batches": 0, "units": 0}
        )
        results.append(
            PermutationResult(
                bench_id=bench_id,
                mode=mode,
                verdict=verdict,
                detail=detail,
                races=list(report["races"]),
                order_warnings=list(report["order_warnings"]),
                batches=report["batches"],
                units=report["units"],
            )
        )
    return results


def run_check(
    only: Optional[Iterable[str]] = None,
    modes: Iterable[str] = MODES,
    seed: int = 1,
) -> dict:
    """Run the permutation check; returns the SIMSAN report document."""
    from repro.report.scenarios import SCENARIOS

    bench_ids = sorted(only) if only else sorted(SCENARIOS)
    results: list[PermutationResult] = []
    for bench_id in bench_ids:
        results.extend(check_scenario(bench_id, modes, seed))
    return {
        "tool": "simsan-permute",
        "seed": seed,
        "modes": list(modes),
        "results": [r.to_json() for r in results],
        "passed": all(r.passed for r in results),
    }


__all__ = [
    "MODES",
    "PASSING",
    "PermutationResult",
    "check_scenario",
    "classify",
    "run_check",
]
