"""Shared-resource primitives built on the event kernel.

- :class:`Resource` — counted resource with FIFO request queue (e.g. a PS
  that serves one worker at a time under round-robin R²SP).
- :class:`QuorumBarrier` — the one cyclic barrier (BSP's global barrier and
  OSP's RS barrier are the same synchronous round, see
  :mod:`repro.sync.base`): its party count can shrink/grow at runtime
  (worker crash/restart, elastic join/leave) and it can trip *degraded*
  after a virtual-time timeout instead of deadlocking (§4.3).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional

from repro.simcore.events import Event
from repro.simcore.priority import URGENT


class Resource:
    """Counted resource with FIFO granting.

    ``request()`` returns an event that succeeds once a unit is available;
    ``release()`` frees a unit. Typical process usage::

        req = resource.request()
        yield req
        try:
            ...  # critical section
        finally:
            resource.release()
    """

    def __init__(self, env: "Environment", capacity: int = 1) -> None:  # noqa: F821
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = int(capacity)
        self._in_use = 0
        self._waiters: Deque[Event] = deque()

    def request(self) -> Event:
        """Return an event that succeeds when a unit is granted."""
        ev = Event(self.env)
        if self._in_use < self.capacity:
            self._in_use += 1
            ev.succeed(priority=URGENT)
        else:
            self._waiters.append(ev)
        return ev

    def release(self) -> None:
        """Free one unit, granting it to the oldest waiter if any."""
        if self._in_use <= 0:
            raise RuntimeError("release() without a matching request()")
        if self._waiters:
            self._waiters.popleft().succeed(priority=URGENT)
        else:
            self._in_use -= 1


class QuorumBarrier:
    """Cyclic barrier with a mutable party count and an optional timeout.

    Each party calls :meth:`wait` and yields the returned event; the event
    for all parties of a generation succeeds at the instant the last party
    arrives, with the generation index (0-based) as its value, and the
    barrier resets for the next generation. Two extensions for fault
    tolerance:

    * :meth:`set_parties` changes the quorum size mid-run. Shrinking it —
      a worker crashed — releases the current generation immediately if
      the survivors have all arrived, instead of deadlocking.
    * ``timeout`` (virtual seconds, measured from a generation's first
      arrival) trips the barrier *degraded*: whoever has arrived proceeds,
      and ``on_degraded(generation, arrived)`` is invoked so the caller
      can count/reweight the short quorum.

    A party that arrives after a degraded trip simply joins the next
    generation; nothing is lost, rounds just skew.
    """

    def __init__(
        self,
        env: "Environment",  # noqa: F821
        parties: int,
        timeout: Optional[float] = None,
        on_degraded: Optional[Callable[[int, int], None]] = None,
    ) -> None:
        if parties < 1:
            raise ValueError(f"parties must be >= 1, got {parties}")
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be positive, got {timeout}")
        self.env = env
        self.parties = int(parties)
        self.timeout = timeout
        self.on_degraded = on_degraded
        self._generation = 0
        self._arrived = 0
        self._event = Event(env)
        #: parties released by the most recent trip (diagnostics).
        self.last_trip_size = 0

    def wait(self) -> Event:
        """Arrive at the barrier; returns the generation's trip event."""
        ev = self._event
        self._arrived += 1
        if self._arrived >= self.parties:
            self._trip(degraded=False)
        elif self._arrived == 1 and self.timeout is not None:
            timer = self.env.timeout(self.timeout)
            timer.callbacks.append(
                lambda _ev, gen=self._generation: self._on_timeout(gen)
            )
        return ev

    def set_parties(self, parties: int) -> None:
        """Resize the quorum; may release the current generation at once."""
        if parties < 1:
            raise ValueError(f"parties must be >= 1, got {parties}")
        self.parties = int(parties)
        if self._arrived and self._arrived >= self.parties:
            self._trip(degraded=False)

    def _on_timeout(self, generation: int) -> None:
        # Stale timer (the generation tripped before the deadline) or a
        # deadline with nobody waiting: ignore.
        if generation != self._generation or self._arrived == 0:
            return
        self._trip(degraded=True)

    def _trip(self, degraded: bool) -> None:
        ev = self._event
        gen = self._generation
        size = self._arrived
        self.last_trip_size = size
        self._generation += 1
        self._arrived = 0
        self._event = Event(self.env)
        ev.succeed(gen, priority=URGENT)
        if degraded and self.on_degraded is not None:
            self.on_degraded(gen, size)


__all__ = ["QuorumBarrier", "Resource"]
