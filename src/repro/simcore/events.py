"""Event primitives for the simulation kernel.

An :class:`Event` is a one-shot occurrence on the virtual timeline. It moves
through three states:

* *pending* — created, not yet triggered;
* *triggered* — a value (or failure) is set and the event is on the queue;
* *processed* — its callbacks have run.

Processes (see :mod:`repro.simcore.process`) wait on events by ``yield``-ing
them; arbitrary code can subscribe via :attr:`Event.callbacks`.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional

from repro.simcore.priority import NORMAL, URGENT

# Sentinel distinguishing "no value yet" from "value is None".
_PENDING = object()


class EventAlreadyTriggered(RuntimeError):
    """Raised when ``succeed``/``fail`` is called on a triggered event."""


class Interrupt(Exception):
    """Thrown into a process by :meth:`repro.simcore.process.Process.interrupt`.

    ``cause`` carries arbitrary user context (e.g. "preempted by straggler
    reschedule").
    """

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence that processes can wait on.

    Events are slotted: a run builds one or more per queue entry, so they
    carry no ``__dict__``.

    Parameters
    ----------
    env:
        Owning environment; the event is scheduled on its queue.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "defused")

    def __init__(self, env: "Environment") -> None:  # noqa: F821
        self.env = env
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        #: If a failure is never retrieved (nothing waits on the event), the
        #: environment re-raises it at the end of the run unless defused.
        self.defused = False

    # -- state ----------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once a value or failure has been set."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have been executed."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded. Only valid once triggered."""
        if not self.triggered:
            raise RuntimeError("event not yet triggered")
        return bool(self._ok)

    @property
    def value(self) -> Any:
        """The event's value (or the exception, for failed events)."""
        if self._value is _PENDING:
            raise RuntimeError("event not yet triggered")
        return self._value

    # -- triggering ------------------------------------------------------
    def succeed(self, value: Any = None, priority: int = NORMAL) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not _PENDING:
            raise EventAlreadyTriggered(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.env.schedule(self, 0.0, priority)
        return self

    def fail(self, exception: BaseException, priority: int = NORMAL) -> "Event":
        """Trigger the event as failed with ``exception``."""
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        if self._value is not _PENDING:
            raise EventAlreadyTriggered(f"{self!r} already triggered")
        self._ok = False
        self._value = exception
        self.env.schedule(self, 0.0, priority)
        return self

    # -- misc -------------------------------------------------------------
    def __repr__(self) -> str:
        state = (
            "processed"
            if self.processed
            else ("triggered" if self.triggered else "pending")
        )
        return f"<{type(self).__name__} {state} at {hex(id(self))}>"


class Timeout(Event):
    """An event that triggers ``delay`` time units after creation.

    It sets its fields itself rather than through ``Event.__init__``: a
    timeout is the kernel's most common entry."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:  # noqa: F821
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self.defused = False
        self.delay = float(delay)
        env.schedule(self, delay)  # refuses a negative or NaN delay

    def __repr__(self) -> str:
        return f"<Timeout delay={self.delay} at {hex(id(self))}>"


class AllOf(Event):
    """Triggers when *all* child events have succeeded.

    Value is a dict mapping each child event to its value. A child failure
    propagates immediately.
    """

    __slots__ = ("events", "_count")

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:  # noqa: F821
        super().__init__(env)
        self.events: list[Event] = list(events)
        for ev in self.events:
            if ev.env is not env:
                raise ValueError("all events must belong to the same environment")
        self._count = 0
        if not self.events:
            self.succeed(self._collect())
            return
        for ev in self.events:
            if ev.processed:
                self._on_child(ev)
            else:
                ev.callbacks.append(self._on_child)

    def _collect(self) -> dict[Event, Any]:
        return {ev: ev._value for ev in self.events if ev.processed and ev._ok}

    def _on_child(self, event: Event) -> None:
        if self._value is not _PENDING:
            return
        if not event._ok:
            event.defused = True
            self.fail(event._value, priority=URGENT)
            return
        self._count += 1
        if self._count == len(self.events):
            self.succeed(self._collect(), priority=URGENT)


__all__ = [
    "AllOf",
    "Event",
    "EventAlreadyTriggered",
    "Interrupt",
    "Timeout",
]
