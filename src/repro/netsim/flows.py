"""Flow state and completed-flow records."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.netsim.links import Link
from repro.simcore.events import Event


@dataclass(slots=True)
class Flow:
    """An in-flight transfer (mutable scheduler state).

    ``effective`` counts the bytes the flow moves: the payload inflated by
    the route loss rate. ``rate`` is the current max–min fair allocation.
    Progress is kept as an anchor, not a running count: the flow had
    ``rem_anchor`` effective bytes left at ``t_anchor`` and has moved at
    ``rate`` since, so it reaches its end at ``t_end``. The anchor moves only
    when the rate the flow ends an instant with differs from the one it
    started it with (``back`` holds the instant's starting anchor meanwhile).
    One is built per transfer, positionally and with every field given, so
    the class is slotted and no field has a default.
    """

    fid: int
    src: int | str
    dst: int | str
    size: float  # payload bytes as requested by the caller
    effective: float  # effective bytes to move in all
    route: tuple[Link, ...]
    latency: float  # one-way route latency (added after the last byte)
    done: Event  # succeeds with a FlowRecord
    tag: Any
    start_time: float
    rate: float
    #: The route's link names without repeats: the links the flow loads,
    #: cached per (src, dst) by the Network so the fair-share solver never
    #: rebuilds name lists per call.
    links: tuple[str, ...]
    #: Strict-priority transmission class (repro.netsim.prio constants).
    prio: int
    #: Owning job name under multi-job co-tenancy, or ``None`` for a
    #: single-tenant flow. Bytes of tagged flows are accounted to
    #: ``netsim.job_bytes.{job}``.
    job: Optional[str]
    #: The anchor: ``rem_anchor`` effective bytes were left at ``t_anchor``
    #: (a new flow's is its start and its ``effective``).
    t_anchor: float
    rem_anchor: float
    #: When the flow's last byte leaves at ``rate`` (``inf`` while unrated
    #: or starved).
    t_end: float = field(default=math.inf, init=False)
    #: ``(t_anchor, rem_anchor, rate)`` as the current instant found them,
    #: saved when the anchor moved to this instant (None before).
    back: Optional[tuple] = field(default=None, init=False)
    #: Remaining bytes when the fabric's set of jobs in flight last changed
    #: (job-tagged flows only): where its contended share is counted from.
    mark: float = field(default=0.0, init=False)
    #: The ``repro.netsim.network._Cohort`` the flow is in, if any: then its
    #: anchor is brought up to the cohort's steps only when read.
    cohort: Any = field(default=None, init=False)
    #: How many of its cohort's steps ``rem_anchor`` has seen.
    base: int = field(default=0, init=False)

    @property
    def remaining(self) -> float:
        """Effective bytes still to move at the clock's current time."""
        cohort = self.cohort
        if cohort is not None:
            cohort.sync(self)
        rem = self.rem_anchor - self.rate * (self.done.env.now - self.t_anchor)
        return rem if rem > 0.0 else 0.0

    def __hash__(self) -> int:
        return self.fid

    def __repr__(self) -> str:
        return (
            f"<Flow #{self.fid} {self.src}->{self.dst} "
            f"{self.size / 1e6:.2f}MB tag={self.tag!r}>"
        )


@dataclass(frozen=True, slots=True)
class FlowRecord:
    """Immutable record of a completed transfer (the ``done`` event value)."""

    fid: int
    src: int | str
    dst: int | str
    size: float
    tag: Any
    start_time: float
    end_time: float
    #: The owning job's name (``Flow.job``); a job's records are the
    #: fabric's records with its name.
    job: Optional[str] = None

    @property
    def duration(self) -> float:
        """Wall-clock (virtual) duration of the transfer in seconds."""
        return self.end_time - self.start_time


class RecordBuilder(FlowRecord):
    """Builds a :class:`FlowRecord` in one call: ``RecordBuilder(...)``
    returns a ``FlowRecord``, all eight fields given positionally.

    A frozen dataclass writes each field through ``object.__setattr__``
    (four times the cost of building a :class:`Flow`). This subclass adds no
    slot, so it has the record's layout: its ``__init__`` writes the slots
    directly, then turns the instance into a plain, immutable
    ``FlowRecord``. The network builds one per finished flow.
    """

    __slots__ = ()
    # Both, so that the type's one set/delete slot is object's C function:
    # with only ``__setattr__`` replaced, every write would still go through
    # the generic dispatcher and cost what the frozen one does.
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__

    def __init__(self, fid, src, dst, size, tag, start_time, end_time, job) -> None:
        self.fid = fid
        self.src = src
        self.dst = dst
        self.size = size
        self.tag = tag
        self.start_time = start_time
        self.end_time = end_time
        self.job = job
        self.__class__ = FlowRecord


__all__ = ["Flow", "FlowRecord"]
