"""The event loop: :class:`Environment`.

The environment owns the simulated clock and a **calendar queue** of
scheduled events (see ``queueing.py`` for the layout): per-timestamp
bucket lists for NORMAL and URGENT events plus a small heap of distinct
timestamps.  Within a bucket, append order *is* schedule order, so the
old per-event ``(time, priority, sequence)`` heap entries — and their
allocation, comparison, and sift costs — disappear while the dispatch
order they encoded is reproduced exactly:

* lower time first (the ``times`` heap),
* URGENT before NORMAL at equal time (urgent buckets drain first),
* FIFO by schedule order at equal ``(time, priority)`` (list append).

Three further mechanisms make the hot path allocation-free (measured
~5x seed throughput on the ``kernel_events`` bench; see
``docs/SIMKERNEL.md`` for the full design and invariants):

* **Batched same-instant dispatch** — the loop pops a whole bucket and
  iterates it, entering the queue machinery once per *instant* instead
  of once per event.  An URGENT event scheduled mid-batch splices the
  un-dispatched remainder back into the calendar so priority order
  still holds (see :meth:`Environment.schedule`).
* **Timeout recycling pool** — a processed :class:`Timeout` that nobody
  else can observe (checked with ``sys.getrefcount``) is reset and
  reused by the next ``env.timeout()`` call instead of being freed and
  reallocated.  A single-slot cache (``_timeout_slot``) keeps the
  steady-state dispatch->create alternation in one object.
* **Inlined waiter resume** — the canonical event shape (a ``Timeout``
  with exactly one waiting process and no callbacks) is resumed
  directly in the loop body: no bound-method allocation, no callback
  list iteration, no ``_dispatch`` frame.

Anything outside that shape — manual events, conditions, interrupts,
failures, multiple waiters — takes the generic :meth:`_dispatch` path,
which is semantically identical to the old single-heap loop (preserved
as :class:`repro.simkernel.reference.NaiveEnvironment` and held equal
by the differential fuzzer in ``tests/simkernel/``).
"""

from __future__ import annotations

from sys import getrefcount
from typing import Any, Generator, Iterable, Optional

from repro.obs.tracer import NULL_TRACER
from repro.simkernel.events import (
    AllOf,
    AnyOf,
    Event,
    NORMAL,
    PENDING,
    Process,
    Timeout,
)
from repro.simkernel.queueing import (
    calendar_peek,
    calendar_pending,
    calendar_pop_one,
    calendar_reinsert,
    heap_pop,
    heap_push,
)


class SimulationError(RuntimeError):
    """An unhandled failure propagated out of the event loop."""


class StopSimulation(Exception):
    """Raised internally to end :meth:`Environment.run` at an event."""


class Environment:
    """Discrete-event simulation environment.

    Parameters
    ----------
    initial_time:
        Starting value of the simulated clock (default ``0.0``).

    Examples
    --------
    >>> env = Environment()
    >>> def proc(env):
    ...     yield env.timeout(3)
    ...     return env.now
    >>> p = env.process(proc(env))
    >>> env.run()
    >>> p.value
    3.0
    """

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        #: Calendar queue: NORMAL buckets, URGENT buckets, distinct-time heap.
        self._buckets: dict[float, list[Event]] = {}
        self._urgent: dict[float, list[Event]] = {}
        self._times: list[float] = []
        #: Events handed to dispatch so far (scheduled_events counter).
        self._dispatched = 0
        self._active_proc: Optional[Process] = None
        #: Timeout recycling pool: single hot slot + overflow list.
        self._timeout_slot: Optional[Timeout] = None
        self._timeout_pool: list[Timeout] = []
        #: Last-bucket cache: the bucket most recently appended to.  A
        #: float compare beats a dict probe for the common "burst of
        #: timeouts landing on one instant" pattern.  Must be
        #: invalidated whenever the cached list may no longer be the
        #: live ``buckets[t]`` (batch pop, urgent splice, recovery).
        self._bcache_t: Optional[float] = None
        self._bcache: Optional[list[Event]] = None
        #: The bucket currently being dispatched (batch) and its
        #: iterator — consulted by the urgent splice and by recovery
        #: after StopSimulation / propagating errors.
        self._batch: Optional[list[Event]] = None
        self._batch_it = None
        self._batch_t = 0.0
        self._batch_urgent = False
        #: Observability sink shared by every component holding this
        #: environment.  The default null tracer records nothing; call
        #: :func:`repro.obs.enable_tracing` to install a real one.
        self.tracer = NULL_TRACER
        #: Checkpoint state probes: ``(name, fn)`` pairs registered by
        #: components via :func:`register_ckpt_probe`; each ``fn()``
        #: returns a JSON-able view of that component's semantic state.
        #: The list is append-only and empty unless :mod:`repro.ckpt`
        #: is in play — zero cost on the hot path.
        self.ckpt_probes: list = []
        #: simsan hook: when :func:`repro.sanitizer.enable_sanitizer`
        #: attaches one, ``run()`` hands the calendar to its
        #: instrumented drive loop instead of ``_run_loop``.  ``None``
        #: costs a single attribute test per ``run()`` call — nothing
        #: on the per-event path.
        self._sanitizer = None
        #: ``timeout`` is installed as an instance attribute (a closure
        #: over the calendar structures): the hot path pays one
        #: attribute load instead of a descriptor + bound-method
        #: allocation per call.
        self.timeout = self._make_timeout()

    # -- clock --------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def scheduled_events(self) -> int:
        """Total events scheduled since creation (perf-harness counter)."""
        return self._dispatched + calendar_pending(self._buckets, self._urgent)

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active_proc

    @property
    def active_process_generator(self):
        return self._active_proc.generator if self._active_proc else None

    # -- scheduling ----------------------------------------------------------

    def schedule(self, event: Event, delay: float = 0.0, priority: int = NORMAL) -> None:
        """Queue ``event`` to be processed ``delay`` time units from now."""
        t = self._now + delay
        if priority:  # NORMAL
            if t == self._bcache_t:
                self._bcache.append(event)
                return
            buckets = self._buckets
            bucket = buckets.get(t)
            if bucket is None:
                if t not in self._urgent:
                    heap_push(self._times, t)
                buckets[t] = bucket = [event]
            else:
                bucket.append(event)
            self._bcache_t = t
            self._bcache = bucket
            return
        # URGENT: separate calendar, drained before NORMAL at equal time.
        urgent = self._urgent
        bucket = urgent.get(t)
        if bucket is None:
            if t not in self._buckets:
                heap_push(self._times, t)
            urgent[t] = [event]
        else:
            bucket.append(event)
        # Urgent splice: if a NORMAL batch at this same instant is being
        # dispatched right now, its un-dispatched remainder must yield
        # to the new URGENT event.  Persist the remainder back into the
        # calendar (ahead of anything scheduled at t meanwhile) and
        # terminate the live batch iterator; the run loop then re-pops
        # urgent[t] before resuming the normals.  This keeps the hot
        # loop free of any per-event priority check.
        batch = self._batch
        if batch and not self._batch_urgent and t == self._batch_t:
            rest = batch[len(batch) - self._batch_it.__length_hint__():]
            if rest:
                self._dispatched -= len(rest)
                calendar_reinsert(
                    self._buckets, self._urgent, self._times, t, rest
                )
                self._bcache_t = None
            batch.clear()

    def ckpt_fingerprint(self) -> dict:
        """A JSON-able digest of the kernel's semantic queue state.

        Captures the clock, the dispatch counter, and the calendar
        *shape* (per-instant urgent/normal bucket sizes, time order).
        Event identities are process-local and deliberately excluded;
        two deterministic executions of the same program reach the same
        fingerprint at the same trigger point, which is exactly the
        invariant :mod:`repro.ckpt` verifies on resume.
        """
        shape = sorted(
            set(self._buckets) | set(self._urgent)
        )
        return {
            "now": self._now,
            "dispatched": self._dispatched,
            "calendar": [
                [
                    t,
                    len(self._urgent.get(t, ())),
                    len(self._buckets.get(t, ())),
                ]
                for t in shape
            ],
        }

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if queue is empty."""
        return calendar_peek(self._buckets, self._urgent, self._times)

    # -- event factories -----------------------------------------------------

    def event(self) -> Event:
        """A pending event to be triggered manually."""
        return Event(self)

    def _make_timeout(self):
        buckets = self._buckets
        times = self._times
        pool = self._timeout_pool
        push = heap_push
        new = Timeout

        def timeout(delay: float, value: Any = None) -> Timeout:
            """An event triggering ``delay`` time units from now.

            Serves recycled :class:`Timeout` instances from the pool
            when available (see the module docstring); falls back to a
            fresh allocation, which schedules itself.
            """
            ev = self._timeout_slot
            if ev is not None:
                self._timeout_slot = None
            elif pool:
                ev = pool.pop()
            else:
                return new(self, delay, value)
            if delay < 0:
                pool.append(ev)
                raise ValueError(f"Negative timeout delay: {delay}")
            ev._value = value
            ev.delay = delay
            t = self._now + delay
            if t == self._bcache_t:
                self._bcache.append(ev)
            else:
                bucket = buckets.get(t)
                if bucket is None:
                    if t not in self._urgent:
                        push(times, t)
                    buckets[t] = bucket = [ev]
                else:
                    bucket.append(ev)
                self._bcache_t = t
                self._bcache = bucket
            return ev

        return timeout

    def process(self, generator: Generator, name: Optional[str] = None) -> Process:
        """Start a new process from ``generator``."""
        proc = Process(self, generator, name=name)
        if self.tracer.trace_kernel:
            # Kernel spans are opt-in (enable_tracing(trace_kernel=True)):
            # one span per process, closed when the process terminates.
            # Process has __slots__, so the link lives in the callback
            # closure rather than on the process object.
            span = self.tracer.start(
                proc.name or "process",
                category="kernel.process",
                component="simkernel",
            )
            proc.callbacks.append(lambda event, _s=span: _s.finish())
        return proc

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event triggering when all ``events`` have succeeded."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event triggering when any of ``events`` triggers."""
        return AnyOf(self, events)

    # -- running ---------------------------------------------------------------

    def _dispatch(self, event: Event) -> None:
        """Process one event the generic way: waiter, then callbacks.

        The waiter (if any) registered before every callback — it can
        only occupy the slot when the callback list is empty — so
        resuming it first preserves registration order exactly.
        """
        self._active_proc = None
        waiter = event._waiter
        callbacks = event.callbacks
        event.callbacks = None
        if waiter is not None:
            event._waiter = None
            waiter._resume(event)
        if callbacks:
            for callback in callbacks:
                if callback is not None:  # None = tombstoned (interrupt detach)
                    callback(event)

        if not event._ok and not event._defused:
            exc = event._value
            raise SimulationError(
                f"Unhandled failure in {event!r}: {exc!r}"
            ) from exc

    def step(self) -> None:
        """Process the single next event.

        Raises
        ------
        IndexError
            If the queue is empty.
        SimulationError
            If the event failed and nobody defused the failure.
        """
        popped = calendar_pop_one(self._buckets, self._urgent, self._times)
        if popped is None:
            raise IndexError("step from an empty schedule")
        # The pop may have deleted the bucket the cache aliases.
        self._bcache_t = None
        t, event = popped
        self._now = t
        self._dispatched += 1
        self._dispatch(event)

    def _run_loop(self, stop_at: float) -> None:
        """Drain the calendar, batching same-instant dispatch.

        ``stop_at`` is checked once per distinct instant (not per
        event); pass ``inf`` to run to exhaustion.
        """
        times = self._times
        buckets = self._buckets
        urgent = self._urgent
        pool = self._timeout_pool
        getrc = getrefcount
        TO = Timeout
        while times:
            t = heap_pop(times)
            if t > stop_at:
                heap_push(times, t)
                return
            self._now = t
            while True:
                batch = urgent.pop(t, None)
                if batch is not None:
                    self._dispatched += len(batch)
                    self._batch = batch
                    self._batch_it = it = iter(batch)
                    self._batch_t = t
                    self._batch_urgent = True
                    for ev in it:
                        self._dispatch(ev)
                    self._batch = None
                    continue
                batch = buckets.pop(t, None)
                if batch is None:
                    break
                # The cache may alias this (now live) batch list.
                self._bcache_t = None
                self._dispatched += len(batch)
                self._batch = batch
                self._batch_it = it = iter(batch)
                self._batch_t = t
                self._batch_urgent = False
                for ev in it:
                    # Fast path: a Timeout with exactly one waiting
                    # process and no callbacks — resume it inline.
                    # Timeouts cannot fail, so no _ok/_defused check.
                    if ev.__class__ is TO:
                        proc = ev._waiter
                        cbs = ev.callbacks
                        if proc is not None and not cbs:
                            value = ev._value
                            send = proc._send
                            if getrc(ev) == 4:
                                # Sole refs: the batch list, the loop
                                # var, getrefcount's arg, proc.target.
                                # Nobody can observe it again — recycle.
                                ev._waiter = None
                                ev._value = PENDING
                                if self._timeout_slot is None:
                                    self._timeout_slot = ev
                                else:
                                    pool.append(ev)
                            else:
                                ev._waiter = None
                                ev.callbacks = None
                            while True:
                                self._active_proc = proc
                                try:
                                    nxt = send(value)
                                except StopIteration as exc:
                                    proc.target = None
                                    proc._ok = True
                                    proc._value = exc.value
                                    self.schedule(proc)
                                    break
                                except BaseException as exc:
                                    proc.target = None
                                    proc._ok = False
                                    proc._value = exc
                                    self.schedule(proc)
                                    break
                                try:
                                    ncbs = nxt.callbacks
                                except AttributeError:
                                    self._active_proc = None
                                    proc.target = None
                                    proc._throw(
                                        TypeError(
                                            f"Process {proc.name} yielded "
                                            f"non-event {nxt!r}"
                                        )
                                    )
                                    break
                                if ncbs is None:
                                    if nxt._ok:
                                        # Already-processed success:
                                        # feed its value straight back.
                                        value = nxt._value
                                        continue
                                    # Already-processed failure: the
                                    # generic path handles defusing.
                                    self._active_proc = None
                                    proc._resume(nxt)
                                    nxt = None
                                    break
                                if not ncbs and nxt._waiter is None:
                                    nxt._waiter = proc
                                else:
                                    proc._cb_index = len(ncbs)
                                    ncbs.append(proc._resume_cb)
                                proc.target = nxt
                                # Drop the local pin: `nxt` is function-
                                # scoped and would otherwise hold a 5th
                                # reference to this event at its own
                                # dispatch, defeating the recycle check.
                                nxt = None
                                break
                        else:
                            # Timeout with extra callbacks (or no
                            # waiter): generic dispatch minus the
                            # failure check.
                            self._active_proc = None
                            ev.callbacks = None
                            if proc is not None:
                                ev._waiter = None
                                proc._resume(ev)
                            if cbs:
                                for cb in cbs:
                                    if cb is not None:
                                        cb(ev)
                    else:
                        self._dispatch(ev)
                self._batch = None
                self._active_proc = None

    def _recover_batch(self) -> None:
        """Reinsert the un-dispatched tail of an aborted batch.

        Called after ``StopSimulation`` or a propagating error cut a
        batch short, so the environment stays consistent and a later
        ``run()`` resumes exactly where this one stopped.
        """
        batch = self._batch
        if batch is None:
            return
        rest = list(self._batch_it)
        self._batch = None
        self._batch_it = None
        self._active_proc = None
        if not rest:
            return
        self._dispatched -= len(rest)
        t = self._batch_t
        if self._batch_urgent:
            calendar_reinsert(self._urgent, self._buckets, self._times, t, rest)
        else:
            calendar_reinsert(self._buckets, self._urgent, self._times, t, rest)
            self._bcache_t = None

    def run(self, until: "float | Event | None" = None) -> Any:
        """Run until the queue empties, a time is reached, or an event fires.

        Parameters
        ----------
        until:
            ``None`` — run until no events remain.
            number — run until the clock reaches that time (clock is set
            to exactly ``until`` even if no event lands there).
            :class:`Event` — run until that event is processed; returns
            its value (re-raising its exception on failure).
        """
        stop_at = float("inf")
        stop_event: Optional[Event] = None

        if isinstance(until, Event):
            stop_event = until
            if stop_event.callbacks is None:  # already processed
                if stop_event._ok:
                    return stop_event._value
                raise stop_event._value
            stop_event.callbacks.append(self._stop_callback)
        elif until is not None:
            stop_at = float(until)
            if stop_at < self._now:
                raise ValueError(f"until={stop_at} is in the past (now={self._now})")

        try:
            if self._sanitizer is not None:
                self._sanitizer.drive(self, stop_at)
            else:
                self._run_loop(stop_at)
        except StopSimulation:
            pass
        finally:
            self._recover_batch()

        if stop_event is None:
            if stop_at != float("inf") and self._now < stop_at:
                self._now = stop_at
            return None
        if not stop_event.triggered:
            raise SimulationError(
                "run(until=event) ran out of events before the event triggered"
            )
        if stop_event._ok:
            return stop_event._value
        stop_event.defused = True
        raise stop_event._value

    @staticmethod
    def _stop_callback(event: Event) -> None:
        raise StopSimulation()

    def __repr__(self) -> str:
        queued = calendar_pending(self._buckets, self._urgent)
        return f"<Environment now={self._now} queued={queued}>"


def register_ckpt_probe(env, name: str, fn) -> None:
    """Register a named checkpoint state probe on ``env``, if supported.

    ``fn()`` must return a JSON-able view of one component's semantic
    state; :mod:`repro.ckpt` hashes the probe outputs into the snapshot
    and re-verifies them at the same trigger point on resume.  Probes
    must capture *decisions*, not caches: anything rebuilt lazily
    (negative-fit memos, recycling pools) stays out so record and
    resume agree.  A ``None`` probe name for an env without the probe
    list (``NaiveEnvironment``, test stubs) is silently a no-op —
    components register unconditionally and stay kernel-agnostic.
    """
    probes = getattr(env, "ckpt_probes", None)
    if probes is not None:
        probes.append((str(name), fn))
