"""The simulation environment: virtual clock + event queue + run loop."""

from __future__ import annotations

import heapq
from contextlib import contextmanager
from typing import Any, Generator, Optional

from repro.simcore.events import AllOf, Event, EventAlreadyTriggered, Timeout
from repro.simcore.priority import NORMAL
from repro.simcore.process import Process


class SimulationError(RuntimeError):
    """Raised when the simulation itself is misused (e.g. running past an
    empty queue with ``until`` set, or an unhandled failure surfaces)."""


class _Never:
    """The stop event of a run without one: it is never processed."""

    __slots__ = ()
    callbacks = ()


_NEVER = _Never()
_INF = float("inf")
_heappop, _heappush = heapq.heappop, heapq.heappush


class Environment:
    """Execution environment for a discrete-event simulation.

    The environment owns the virtual clock (:attr:`now`) and the event queue.
    Time units are arbitrary; this project uses **seconds** throughout.

    Parameters
    ----------
    initial_time:
        Starting value of the virtual clock.
    """

    def __init__(self, initial_time: float = 0.0) -> None:
        #: Current virtual time: a plain attribute, written only by
        #: :meth:`step` and by :meth:`run` until a time, so reading it costs
        #: no call.
        self.now = float(initial_time)
        self._queue: list[tuple[float, int, int, Event]] = []
        self._eid = 0  # insertion counter: deterministic FIFO tie-break
        #: Optional :class:`repro.obs.Tracer` (duck-typed; the kernel never
        #: calls it). None keeps tracing zero-cost for untraced runs.
        self.tracer = None
        #: The process whose generator step is currently executing (set by
        #: :class:`~repro.simcore.process.Process`). Gives the tracer its
        #: process-local current-span context.
        self.active_process = None
        #: Optional :class:`repro.obs.timeseries.MetricSampler` (duck-typed).
        #: Its ``on_advance(now)`` is called after a processed event's
        #: callbacks ran, once the clock has reached its ``next_edge``, so
        #: sampling observes the post-event state without ever scheduling
        #: events of its own — sampled runs stay bit-identical to unsampled.
        self.metric_sampler = None
        #: Co-tenancy namespace: the job name processes created *right now*
        #: are stamped with (see :meth:`job_scope`). ``None`` outside any
        #: scope — the single-tenant default, with zero bookkeeping cost.
        self.current_job: Optional[str] = None

    @contextmanager
    def job_scope(self, job: Optional[str]):
        """Attribute processes (and their tracer spans) to a co-tenant job.

        Purely passive namespacing: every :class:`Process` created while
        the scope is open records ``job`` in its ``.job`` attribute, which
        the tracer copies onto spans so multi-job traces can be filtered
        per tenant. No events are created and virtual time is untouched,
        so scoped runs stay bit-identical to unscoped ones.
        """
        prev, self.current_job = self.current_job, job
        try:
            yield self
        finally:
            self.current_job = prev

    # -- event factories ---------------------------------------------------
    def event(self) -> Event:
        """Create a new, untriggered :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that triggers after ``delay`` time units."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator) -> Process:
        """Start a new process from a generator; returns its Process event."""
        return Process(self, generator)

    def all_of(self, events) -> Event:
        """Event that fires when all of ``events`` have succeeded."""
        return AllOf(self, events)

    def defer(self, fn) -> Event:
        """Same-instant batching hook: run ``fn(event)`` later *this* instant.

        Schedules an already-succeeded event at the current time with ``fn``
        as its one callback, so ``fn`` executes after every event already
        queued for ``now`` (at NORMAL priority) but before the clock
        advances. Subsystems use this to coalesce work triggered by several
        same-instant events into one pass — e.g. the network re-rates once
        per instant instead of once per flow start. The callback must not
        assume any ordering relative to other events at the same instant
        beyond "after those queued before it".
        """
        ev = Event(self)
        ev._ok = True
        ev._value = None
        ev.callbacks.append(fn)
        self.schedule(ev, 0.0, NORMAL)
        return ev

    def deliver(self, event: Event, value: Any, delay: float) -> None:
        """Succeed ``event`` with ``value`` at ``now + delay``, as one queue entry.

        ``event`` itself is queued at NORMAL, in the slot a timeout created
        now would take. It stays untriggered until the entry pops —
        ``triggered`` is False and waiters may still register — and takes
        ``value`` just before its callbacks run, in registration order.
        """
        if event.triggered:
            raise EventAlreadyTriggered(f"{event!r} already triggered")
        self.schedule(event, delay)  # checks the delay

        def settle(ev: Event) -> None:
            if ev.triggered:  # succeeded, failed or delivered again meanwhile
                raise EventAlreadyTriggered(f"{ev!r} already triggered")
            ev._ok = True
            ev._value = value

        event.callbacks.insert(0, settle)

    def cancel(self, event: Event) -> None:
        """Withdraw a queued event that has not been processed.

        Its queue entry stays where it is but is dropped unseen when it
        reaches the front: the clock does not move to its time, no callback
        runs and the sampler is not called. Other entries keep their order
        (``eid`` only counts), so cancelling changes nothing but the
        withdrawn entry. Meant for a timer its owner re-arms (the network's
        wake-up): nothing else may wait on the event.
        """
        if event.callbacks is None:
            raise SimulationError(f"{event!r} was already processed")
        event.callbacks = None

    # -- scheduling ----------------------------------------------------------
    def schedule(self, event: Event, delay: float = 0.0, priority: int = NORMAL) -> None:
        """Queue a triggered event for processing at ``now + delay``.

        The only way an entry enters the queue."""
        if not delay >= 0:  # written so that a NaN delay fails here, not later
            raise ValueError(f"delay must be >= 0, got {delay}")
        self._eid = eid = self._eid + 1
        _heappush(self._queue, (self.now + delay, priority, eid, event))

    def step(self) -> None:
        """Process the next queue entry: the kernel's one dispatch body.

        It pops the entry and drops it if it was cancelled, without moving
        the clock. Otherwise it advances the clock to it, runs its
        callbacks in registration order, raises an unhandled failure, and
        calls the sampler if the clock has reached its ``next_edge``.
        :meth:`run` calls it once per entry.
        """
        try:
            when, _prio, _eid, event = _heappop(self._queue)
        except IndexError:
            raise SimulationError("step() on an empty event queue") from None
        callbacks = event.callbacks
        if callbacks is None:  # cancelled: no time passes, nothing observes it
            return
        assert when >= self.now, "event queue went backwards in time"
        self.now = when
        event.callbacks = None
        for cb in callbacks:
            cb(event)
        if not event._ok and not event.defused:
            exc = event._value
            if isinstance(exc, BaseException):
                raise exc
            raise SimulationError(f"event failed with non-exception {exc!r}")
        sampler = self.metric_sampler
        if sampler is not None and when >= sampler.next_edge:
            sampler.on_advance(when)

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run the simulation.

        Parameters
        ----------
        until:
            ``None`` — run until the queue drains.
            ``float`` — run until the clock reaches that time (clock is set
            to exactly ``until`` on return even if the queue drained early).
            :class:`Event` — run until that event has been processed and
            return its value (re-raising its failure).

        Every mode is the one loop below around :meth:`step`: it stops when
        the ``until`` event has been processed, the queue is empty or the
        next entry lies past the ``until`` time.
        """
        stop, horizon = _NEVER, _INF
        if isinstance(until, Event):
            stop = until
        elif until is not None:
            horizon = float(until)
            if horizon < self.now:
                raise ValueError(f"until={horizon} is in the past (now={self.now})")
        queue, step = self._queue, self.step
        while stop.callbacks is not None and queue and queue[0][0] <= horizon:
            step()

        if stop is not _NEVER:
            if stop.callbacks is not None:
                raise SimulationError("run(until=event): queue drained before event triggered")
            if not stop._ok:
                raise stop._value
            return stop._value
        if until is not None:
            self.now = horizon
        return None


__all__ = ["Environment", "SimulationError"]
