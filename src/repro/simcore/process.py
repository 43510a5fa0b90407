"""Generator-based simulation processes.

A :class:`Process` wraps a Python generator. Each ``yield`` must produce an
:class:`~repro.simcore.events.Event`; the process suspends until that event
triggers, then resumes with the event's value (``event.value`` is sent into
the generator). A failed event is thrown into the generator as its
exception, so processes can ``try/except`` communication failures.

A Process is itself an Event: it succeeds with the generator's return value
when the generator ends, or fails with its uncaught exception. A return
that nothing waits on settles in place (processed at once, no queue entry);
a failure is always queued, so an unhandled one still surfaces from
``run()``.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.simcore.events import Event, Interrupt
from repro.simcore.priority import URGENT


class Process(Event):
    """A running simulation process (also an event: done ⇔ triggered)."""

    __slots__ = ("_generator", "_target", "job", "_resume_cb")

    def __init__(self, env: "Environment", generator: Generator) -> None:  # noqa: F821
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"process() expects a generator, got {generator!r}")
        super().__init__(env)
        self._generator = generator
        self._target: Event | None = None
        #: Owning co-tenant job (from the environment's open job_scope at
        #: creation time), or None for single-tenant processes.
        self.job = getattr(env, "current_job", None)
        #: ``self._resume`` bound once: every wait registers this one object.
        self._resume_cb = self._resume
        # Bootstrap: resume the generator as soon as the sim starts/steps.
        init = Event(env)
        init.callbacks.append(self._resume_cb)
        init.succeed(priority=URGENT)

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current instant.

        The process stops waiting on its current target (the target event is
        left untouched and may still trigger later; its value is simply no
        longer delivered to this process).
        """
        if self.triggered:
            raise RuntimeError("cannot interrupt a finished process")
        # Deliver via a fresh failed event so delivery is ordered with the
        # rest of the queue (URGENT: beats same-time normal events).
        interrupt_ev = Event(self.env)
        interrupt_ev.defused = True
        interrupt_ev.callbacks.append(self._resume_interrupt)
        interrupt_ev._ok = False
        interrupt_ev._value = Interrupt(cause)
        self.env.schedule(interrupt_ev, priority=URGENT)

    # -- internal ----------------------------------------------------------
    def _resume_interrupt(self, event: Event) -> None:
        if self.triggered:
            return  # process finished before the interrupt was delivered
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume_cb)
            except ValueError:
                pass
        self._target = None
        self._step(event, True)

    def _resume(self, event: Event) -> None:
        self._target = None
        self._step(event, not event._ok)

    def _step(self, event: Event, throw: bool) -> None:
        # Mark this process as the one executing so tracer spans opened in
        # the generator body nest in a process-local context (triggering
        # another event here only *schedules* its callbacks, so steps never
        # nest — but restore the previous value anyway, defensively).
        env = self.env
        prev_active = env.active_process
        env.active_process = self
        try:
            if throw:
                event.defused = True
                next_ev = self._generator.throw(event._value)
            else:
                next_ev = self._generator.send(event._value)
        except StopIteration as stop:
            if self.callbacks:
                self.succeed(stop.value, priority=URGENT)
            else:
                # Nobody waits: settle in place, processed at this instant,
                # instead of queueing an entry that would run no callback.
                # A later ``yield self`` resumes through the relay below.
                self._ok = True
                self._value = stop.value
                self.callbacks = None
            return
        except BaseException as exc:
            self.fail(exc, priority=URGENT)
            return
        finally:
            env.active_process = prev_active

        if not isinstance(next_ev, Event):
            err = RuntimeError(
                f"process yielded a non-event: {next_ev!r} "
                "(processes must yield simcore events)"
            )
            self.fail(err, priority=URGENT)
            return

        self._target = next_ev
        callbacks = next_ev.callbacks
        if callbacks is None:
            # Already processed: resume immediately (same instant).
            relay = Event(env)
            relay.callbacks.append(self._resume_cb)
            relay._ok = next_ev._ok
            relay._value = next_ev._value
            if not next_ev._ok:
                relay.defused = True
            env.schedule(relay, 0.0, URGENT)
        else:
            callbacks.append(self._resume_cb)


__all__ = ["Process"]
