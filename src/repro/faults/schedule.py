"""Time-indexed fault schedules for robustness experiments.

The paper's case for OSP rests on behaviour under imperfect networks —
Eq. 5 bakes the loss rate into the ICS budget and §4.3 defines graceful
degradation — so the simulator must be able to *perturb* a run, not just
hold a constant loss rate. A :class:`FaultSchedule` is a declarative,
immutable list of fault events; :class:`~repro.faults.injector.FaultInjector`
replays it against a live simulation.

Event taxonomy
--------------
Network (applied to :class:`~repro.netsim.links.Link` state for a window):

* :class:`LossBurst` — extra loss rate on the targeted links.
* :class:`BandwidthDip` — capacity scaled by a factor < 1.
* :class:`LinkFlap` — the link effectively goes dark (a tiny residual
  capacity avoids divide-by-zero while making progress negligible).

Worker:

* :class:`StragglerSlowdown` — a worker's compute time is multiplied by a
  factor ≥ 1 inside the window (deterministic straggler, unlike the
  stochastic :class:`~repro.hardware.jitter.LognormalJitter`).

Membership (epoch-indexed; together the run's one membership timeline):

* :class:`WorkerCrash` — the worker dies before starting ``before_epoch``;
  with ``restart_epoch`` set it rejoins at that epoch after re-syncing its
  replica from the PS (or from the latest checkpoint).
* :class:`WorkerJoin` — an elastic worker enters when ``epoch`` begins; it
  is absent before.
* :class:`WorkerLeave` — a worker leaves gracefully when ``epoch`` begins.

:meth:`FaultSchedule.transitions` reads them as one per-worker list of
``(epoch, entering, event)``; :meth:`FaultSchedule.present` says who is in
the cluster during an epoch. A worker has at most one event of each kind, a
leave comes after its join, and a crashed worker never joins or leaves.

All times are virtual seconds; epochs are 0-based plan epochs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar, Optional, Union

from repro.bounds import (
    COUNT, FRACTION, INDEX, NON_NEGATIVE, Bound, Tagged, check_bounds, read_json_arg, record_of,
)  # fmt: skip


#: The bounds every windowed event shares. An infinite ``duration`` lasts to
#: the end of the run; ``nodes=None`` targets every link.
_WINDOW = {"start": NON_NEGATIVE, "duration": Bound(0, math.inf, ends="(]")}
_NODES = Bound(0, integer=True, optional=True, each=True)


def _window_post_init(event) -> None:
    """Hold ``nodes`` as a tuple, then check every declared input."""
    if event.nodes is not None:
        object.__setattr__(event, "nodes", tuple(event.nodes))
    check_bounds(event)


@dataclass(frozen=True)
class LossBurst:
    """Extra packet loss on the targeted nodes' links for a window.

    ``nodes=None`` hits every link in the fabric; otherwise the listed
    nodes' uplink+downlink pairs.
    """

    kind: ClassVar[str] = "loss_burst"
    start: float
    duration: float
    loss_rate: float = 0.05
    nodes: Optional[tuple[int, ...]] = None

    BOUNDS = {**_WINDOW, "loss_rate": Bound(0, 1), "nodes": _NODES}
    __post_init__ = _window_post_init


@dataclass(frozen=True)
class BandwidthDip:
    """Link capacity scaled by ``factor`` (< 1 is a dip) for a window."""

    kind: ClassVar[str] = "bandwidth_dip"
    start: float
    duration: float
    factor: float = 0.5
    nodes: Optional[tuple[int, ...]] = None

    BOUNDS = {**_WINDOW, "factor": FRACTION, "nodes": _NODES}
    __post_init__ = _window_post_init


@dataclass(frozen=True)
class LinkFlap:
    """The targeted links go dark for a window (near-zero capacity)."""

    kind: ClassVar[str] = "link_flap"
    start: float
    duration: float
    nodes: Optional[tuple[int, ...]] = None

    BOUNDS = {**_WINDOW, "nodes": _NODES}
    __post_init__ = _window_post_init


@dataclass(frozen=True)
class StragglerSlowdown:
    """Deterministic straggler: ``worker``'s compute × ``factor`` in-window."""

    kind: ClassVar[str] = "straggler"
    worker: int
    start: float
    duration: float
    factor: float = 2.0

    BOUNDS = {"worker": INDEX, **_WINDOW, "factor": Bound(1)}
    __post_init__ = check_bounds


@dataclass(frozen=True)
class WorkerCrash:
    """``worker`` dies before starting epoch ``before_epoch`` (0-based).

    With ``restart_epoch`` set the worker rejoins once the cluster has
    finished epoch ``restart_epoch − 1`` — a crash/restart cycle rather
    than a permanent loss.  ``recover`` picks how the rejoining worker gets
    its state back: ``"cold"`` re-syncs the replica from the live PS;
    ``"checkpoint"`` restores it from the run's latest checkpoint (requires
    checkpointing to be enabled on the trainer).
    """

    kind: ClassVar[str] = "worker_crash"
    worker: int
    before_epoch: int
    restart_epoch: Optional[int] = None
    recover: str = "cold"

    BOUNDS = {"worker": INDEX, "before_epoch": COUNT,
              "restart_epoch": Bound(2, integer=True, optional=True)}  # fmt: skip

    def __post_init__(self) -> None:
        check_bounds(self)
        if self.restart_epoch is not None and self.restart_epoch <= self.before_epoch:
            raise ValueError(
                f"restart_epoch ({self.restart_epoch}) must be after "
                f"before_epoch ({self.before_epoch})"
            )
        if self.recover not in ("cold", "checkpoint"):
            raise ValueError(
                f"recover must be 'cold' or 'checkpoint', got {self.recover!r}"
            )
        if self.recover == "checkpoint" and self.restart_epoch is None:
            raise ValueError("recover='checkpoint' requires restart_epoch")


@dataclass(frozen=True)
class WorkerJoin:
    """Worker ``worker`` joins the cluster when epoch ``epoch`` begins.

    The worker sits out epochs ``0..epoch-1`` (it is not counted alive) and
    enters at the epoch boundary with a fresh copy of the global model.
    """

    kind: ClassVar[str] = "worker_join"
    worker: int
    epoch: int

    BOUNDS = {"worker": INDEX, "epoch": COUNT}
    __post_init__ = check_bounds


@dataclass(frozen=True)
class WorkerLeave:
    """Worker ``worker`` leaves the cluster when epoch ``epoch`` begins.

    The departure is graceful: the worker finishes epoch ``epoch-1``
    (including any in-flight ICS push) before leaving.
    """

    kind: ClassVar[str] = "worker_leave"
    worker: int
    epoch: int

    BOUNDS = {"worker": INDEX, "epoch": COUNT}
    __post_init__ = check_bounds


MembershipEvent = Union[WorkerCrash, WorkerJoin, WorkerLeave]
FaultEvent = Union[
    LossBurst, BandwidthDip, LinkFlap, StragglerSlowdown, WorkerCrash, WorkerJoin, WorkerLeave
]
_MEMBERSHIP = (WorkerCrash, WorkerJoin, WorkerLeave)
#: One step of a worker's membership timeline: ``(epoch, entering, event)``.
Transition = tuple[int, bool, MembershipEvent]

#: JSON ``kind`` → event class, for :func:`parse_faults`.
EVENT_KINDS: dict[str, type] = {
    cls.kind: cls
    for cls in (
        LossBurst, BandwidthDip, LinkFlap, StragglerSlowdown,
        WorkerCrash, WorkerJoin, WorkerLeave,
    )
}  # fmt: skip


@dataclass(frozen=True)
class FaultSchedule:
    """Immutable, validated collection of fault events."""

    events: tuple[FaultEvent, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        events = tuple(self.events)
        for ev in events:
            if type(ev) not in EVENT_KINDS.values():
                raise TypeError(f"not a fault event: {ev!r}")
        by_worker: dict[int, dict[str, MembershipEvent]] = {}
        for ev in events:
            if isinstance(ev, _MEMBERSHIP):
                kinds = by_worker.setdefault(ev.worker, {})
                if ev.kind in kinds:
                    raise ValueError(f"worker {ev.worker} has more than one {ev.kind} event")
                kinds[ev.kind] = ev
        timeline: dict[int, tuple[Transition, ...]] = {}
        for worker, kinds in by_worker.items():
            if "worker_crash" in kinds and len(kinds) > 1:
                raise ValueError(
                    f"worker {worker} both crashes and joins or leaves; "
                    "a worker's membership events are a crash or a join/leave"
                )
            join, leave = kinds.get("worker_join"), kinds.get("worker_leave")
            if join is not None and leave is not None and leave.epoch <= join.epoch:
                raise ValueError(
                    f"worker {worker} leaves at epoch {leave.epoch} but only "
                    f"joins at epoch {join.epoch}"
                )
            steps = []
            for ev in kinds.values():
                if isinstance(ev, WorkerCrash):
                    steps.append((ev.before_epoch, False, ev))
                    if ev.restart_epoch is not None:
                        steps.append((ev.restart_epoch, True, ev))
                else:
                    steps.append((ev.epoch, isinstance(ev, WorkerJoin), ev))
            timeline[worker] = tuple(sorted(steps, key=lambda step: step[0]))
        object.__setattr__(self, "events", events)
        object.__setattr__(self, "_timeline", timeline)

    def __bool__(self) -> bool:
        return bool(self.events)

    def __len__(self) -> int:
        return len(self.events)

    @property
    def network_events(self) -> tuple[FaultEvent, ...]:
        return tuple(
            ev for ev in self.events
            if isinstance(ev, (LossBurst, BandwidthDip, LinkFlap))
        )

    @property
    def straggler_events(self) -> tuple[StragglerSlowdown, ...]:
        return tuple(ev for ev in self.events if isinstance(ev, StragglerSlowdown))

    @property
    def membership_events(self) -> tuple[MembershipEvent, ...]:
        """Crashes, joins and leaves: every event of the membership timeline."""
        return tuple(ev for ev in self.events if isinstance(ev, _MEMBERSHIP))

    def transitions(self, worker: int) -> tuple[Transition, ...]:
        """``worker``'s membership timeline, in epoch order: a crash is an
        exit at ``before_epoch`` (and an entry at ``restart_epoch``), a join
        an entry, a leave an exit."""
        return self._timeline.get(worker, ())

    def last_step(self, worker: int, epoch: int) -> Optional[Transition]:
        """``worker``'s last transition at or before ``epoch``, if any."""
        last = None
        for step in self.transitions(worker):
            if step[0] <= epoch:
                last = step
        return last

    def present(self, worker: int, epoch: int) -> bool:
        """Is ``worker`` in the cluster during ``epoch``? Its last transition
        by then decides; before any, everyone but a joiner is in."""
        step = self.last_step(worker, epoch)
        if step is None:
            return not any(isinstance(s[2], WorkerJoin) for s in self.transitions(worker))
        return step[1]

    def windows(self) -> list[tuple[str, float, float, str]]:
        """Time windows for dashboard shading: ``(kind, start, duration,
        detail)`` per windowed event, sorted by start time.

        Crashes, joins and leaves are epoch-indexed rather than
        time-indexed, so they are excluded — the dashboard shades them from
        the tracer's fault spans, which carry the realised virtual-time
        window.
        """
        out: list[tuple[str, float, float, str]] = []
        for ev in self.events:
            if isinstance(ev, _MEMBERSHIP):
                continue
            if isinstance(ev, StragglerSlowdown):
                detail = f"worker {ev.worker} x{ev.factor:g}"
            elif isinstance(ev, BandwidthDip):
                detail = f"factor {ev.factor:g}"
            elif isinstance(ev, LossBurst):
                detail = f"loss {ev.loss_rate:g}"
            else:
                detail = ""
            out.append((ev.kind, ev.start, ev.duration, detail))
        out.sort(key=lambda w: (w[1], w[0]))
        return out


#: A ``--faults`` value: a list of events, or ``{"events": [...]}``. Each
#: kind's record is its dataclass's fields and ``BOUNDS``.
_EVENT = Tagged(
    "kind", {kind: {"kind": str, **record_of(cls)} for kind, cls in EVENT_KINDS.items()}, None
)
FAULTS = ([_EVENT], {"events": [_EVENT]})


def parse_faults(spec: Union[str, Path]) -> FaultSchedule:
    """Build a schedule from inline JSON or a JSON file path, read as
    :data:`FAULTS`.

    Accepts either a JSON list of event objects or ``{"events": [...]}``;
    each object needs a ``"kind"`` from :data:`EVENT_KINDS` (network
    windows, stragglers, and the membership kinds ``worker_crash`` /
    ``worker_join`` / ``worker_leave``) plus that event's fields, worker ids
    and epochs as JSON integers::

        [{"kind": "loss_burst", "start": 2.0, "duration": 5.0,
          "loss_rate": 0.2},
         {"kind": "worker_crash", "worker": 3, "before_epoch": 2},
         {"kind": "worker_join", "worker": 4, "epoch": 1},
         {"kind": "worker_leave", "worker": 0, "epoch": 3}]
    """
    payload = read_json_arg(spec, FAULTS, "--faults")
    entries = payload["events"] if isinstance(payload, dict) else payload
    return FaultSchedule(tuple(
        EVENT_KINDS[entry["kind"]](**{k: v for k, v in entry.items() if k != "kind"})
        for entry in entries
    ))  # fmt: skip


__all__ = [
    "BandwidthDip",
    "EVENT_KINDS",
    "FaultEvent",
    "FaultSchedule",
    "LinkFlap",
    "LossBurst",
    "MembershipEvent",
    "StragglerSlowdown",
    "WorkerCrash",
    "WorkerJoin",
    "WorkerLeave",
    "parse_faults",
]
