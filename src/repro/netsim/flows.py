"""Flow state and completed-flow records."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.netsim.links import Link
from repro.netsim.prio import PRIO_NORMAL
from repro.simcore.events import Event


@dataclass(slots=True)
class Flow:
    """An in-flight transfer (mutable scheduler state).

    ``remaining`` counts *effective* bytes (payload inflated by the route
    loss rate); ``rate`` is the current max–min fair allocation. One is
    built per transfer, positionally, so the class is slotted.
    """

    fid: int
    src: int | str
    dst: int | str
    size: float  # payload bytes as requested by the caller
    remaining: float  # effective bytes still to move
    route: tuple[Link, ...]
    latency: float  # one-way route latency (added after draining)
    done: Event  # succeeds with a FlowRecord
    tag: Any = None
    start_time: float = 0.0
    rate: float = 0.0
    #: Interned link-name tuple for the route, cached per (src, dst) by the
    #: Network so the fair-share solver never rebuilds name lists per call.
    names: tuple[str, ...] = ()
    #: ``names`` without repeats (cached beside it): the links the flow loads.
    links: tuple[str, ...] = ()
    #: Strict-priority transmission class (repro.netsim.prio constants).
    prio: int = PRIO_NORMAL
    #: Owning job name under multi-job co-tenancy, or ``None`` for a
    #: single-tenant flow. Drained bytes of tagged flows are accounted to
    #: ``netsim.job_bytes.{job}``.
    job: Optional[str] = None

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


__all__ = ["Flow", "FlowRecord"]
