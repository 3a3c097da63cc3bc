"""Checkpoint triggers: when to snapshot, and what state to fingerprint.

:class:`SnapshotTrigger` is a :class:`~repro.obs.tracer.SpanSink`
placed *after* the spill sink in a ``TeeSink``.  It watches the
simulated time carried by emitted records and fires its callback the
first time the stream crosses each cadence boundary.  Because it is
driven by the record stream itself, the trigger instant is a pure
function of the trace — a resumed re-execution crosses the same
boundaries at the same records, which is what lets the verifier
compare state fingerprints at the recorded index.  A trigger process
in the kernel would instead perturb the golden trace.

Fingerprints come from the append-only ``env.ckpt_probes`` registry
(see :func:`repro.simkernel.register_ckpt_probe`): each probe returns a
JSON-safe dict of *decisions, not caches*, and we store only its sha256
so snapshots stay small and comparisons stay byte-exact.
"""

from __future__ import annotations

from typing import Callable

from repro.obs.tracer import SpanSink

from repro.ckpt.format import FingerprintMismatch, fingerprint_digest


def collect_fingerprints(env) -> dict:
    """Digest the kernel and every registered probe on ``env``.

    Keys are probe names (duplicates get ``#k`` suffixes in
    registration order, which is deterministic), values are sha256 hex
    digests of each probe's canonical-JSON state.
    """
    out: dict[str, str] = {}
    fp = getattr(env, "ckpt_fingerprint", None)
    if callable(fp):
        out["kernel"] = fingerprint_digest(fp())
    seen: dict[str, int] = {}
    for name, probe in getattr(env, "ckpt_probes", ()):
        k = seen.get(name, 0)
        seen[name] = k + 1
        key = name if k == 0 else f"{name}#{k}"
        out[key] = fingerprint_digest(probe())
    tracer = getattr(env, "tracer", None)
    next_id = getattr(tracer, "_next_id", None)
    if next_id is not None:
        out["tracer"] = fingerprint_digest(
            {"next_id": next_id, "n_instants": tracer._n_instants}
        )
    return out


def verify_fingerprints(recorded: dict, live: dict, *, where: str) -> None:
    """Raise :class:`FingerprintMismatch` naming every divergent probe.

    Probes present on one side only also fail — a resumed run that
    *lost* a component is as wrong as one whose component diverged.
    """
    bad = []
    for key in sorted(set(recorded) | set(live)):
        if recorded.get(key) != live.get(key):
            bad.append(
                f"{key}: recorded={recorded.get(key, '<absent>')[:12]} "
                f"live={live.get(key, '<absent>')[:12]}"
            )
    if bad:
        raise FingerprintMismatch(
            f"resumed state diverged at {where}: " + "; ".join(bad)
        )


class SnapshotTrigger(SpanSink):
    """Fires ``callback(index)`` when record time crosses the cadence grid.

    ``index`` is ``floor(t / cadence)`` at the crossing record — if one
    record jumps several grid steps only the landing index fires, and
    both the recorded and the resumed run see the identical record
    stream, so they fire the identical index sequence.

    The trigger reacts to span *finish* and instant events (their
    timestamps are final); span starts are ignored because an open span
    carries no end time yet and the finish will cover the interval.
    """

    def __init__(self, cadence: float, callback: Callable[[int], None]):
        if cadence <= 0:
            raise ValueError("cadence must be positive")
        self.cadence = float(cadence)
        self.callback = callback
        self._next_index = 1
        #: Indices fired so far, in order (diagnostics + tests).
        self.fired: list[int] = []

    def _maybe(self, t) -> None:
        if t is None or t < self._next_index * self.cadence:
            return
        index = int(t // self.cadence)
        self._next_index = index + 1
        self.fired.append(index)
        self.callback(index)

    def on_finish(self, span) -> None:
        self._maybe(span.end)

    def on_instant(self, instant) -> None:
        self._maybe(instant.t)


__all__ = [
    "SnapshotTrigger",
    "collect_fingerprints",
    "verify_fingerprints",
]
