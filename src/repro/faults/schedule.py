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
* :class:`WorkerCrash` — the worker dies before starting ``before_epoch``;
  with ``restart_epoch`` set it rejoins at that epoch after re-syncing its
  replica from the PS.

All times are virtual seconds; epochs are 0-based plan epochs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar, Optional, Sequence, Union


# Every bound below is written so that NaN fails it: ``not x >= 0`` rejects
# NaN where ``x < 0`` would let it through to the event queue.


def _check_window(start: float, duration: float) -> None:
    if not start >= 0:
        raise ValueError(f"start must be >= 0, got {start}")
    if not duration > 0:
        raise ValueError(f"duration must be positive, got {duration}")


def _freeze_nodes(obj, nodes) -> None:
    if nodes is not None:
        object.__setattr__(obj, "nodes", tuple(int(n) for n in nodes))


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

    def __post_init__(self) -> None:
        _check_window(self.start, self.duration)
        if not (0.0 <= self.loss_rate < 1.0):
            raise ValueError(f"loss_rate must be in [0,1), got {self.loss_rate}")
        _freeze_nodes(self, self.nodes)


@dataclass(frozen=True)
class BandwidthDip:
    """Link capacity scaled by ``factor`` (< 1 is a dip) for a window."""

    kind: ClassVar[str] = "bandwidth_dip"
    start: float
    duration: float
    factor: float = 0.5
    nodes: Optional[tuple[int, ...]] = None

    def __post_init__(self) -> None:
        _check_window(self.start, self.duration)
        if not (0.0 < self.factor <= 1.0):
            raise ValueError(f"factor must be in (0,1], got {self.factor}")
        _freeze_nodes(self, self.nodes)


@dataclass(frozen=True)
class LinkFlap:
    """The targeted links go dark for a window (near-zero capacity)."""

    kind: ClassVar[str] = "link_flap"
    start: float
    duration: float
    nodes: Optional[tuple[int, ...]] = None

    def __post_init__(self) -> None:
        _check_window(self.start, self.duration)
        _freeze_nodes(self, self.nodes)


@dataclass(frozen=True)
class StragglerSlowdown:
    """Deterministic straggler: ``worker``'s compute × ``factor`` in-window."""

    kind: ClassVar[str] = "straggler"
    worker: int
    start: float
    duration: float
    factor: float = 2.0

    def __post_init__(self) -> None:
        _check_window(self.start, self.duration)
        if not self.worker >= 0:
            raise ValueError(f"worker must be >= 0, got {self.worker}")
        if not self.factor >= 1.0:
            raise ValueError(f"factor must be >= 1, got {self.factor}")


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

    def __post_init__(self) -> None:
        if not self.worker >= 0:
            raise ValueError(f"worker must be >= 0, got {self.worker}")
        if not self.before_epoch >= 1:
            raise ValueError(
                "workers can only fail after completing an epoch "
                f"(before_epoch >= 1), got {self.before_epoch}"
            )
        if self.restart_epoch is not None and not self.restart_epoch > self.before_epoch:
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


FaultEvent = Union[LossBurst, BandwidthDip, LinkFlap, StragglerSlowdown, WorkerCrash]

#: JSON ``kind`` → event class, for :func:`parse_faults`.
EVENT_KINDS: dict[str, type] = {
    cls.kind: cls
    for cls in (LossBurst, BandwidthDip, LinkFlap, StragglerSlowdown, WorkerCrash)
}


@dataclass(frozen=True)
class FaultSchedule:
    """Immutable, validated collection of fault events."""

    events: tuple[FaultEvent, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        events = tuple(self.events)
        for ev in events:
            if type(ev) not in EVENT_KINDS.values():
                raise TypeError(f"not a fault event: {ev!r}")
        crashes = [ev.worker for ev in events if isinstance(ev, WorkerCrash)]
        if len(crashes) != len(set(crashes)):
            raise ValueError("at most one WorkerCrash per worker")
        object.__setattr__(self, "events", events)

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
    def crash_events(self) -> tuple[WorkerCrash, ...]:
        return tuple(ev for ev in self.events if isinstance(ev, WorkerCrash))

    def windows(self) -> list[tuple[str, float, float, str]]:
        """Time windows for dashboard shading: ``(kind, start, duration,
        detail)`` per windowed event, sorted by start time.

        Crashes are epoch-indexed rather than time-indexed, so they are
        excluded — the dashboard shades them from the tracer's fault spans,
        which carry the realised virtual-time window.
        """
        out: list[tuple[str, float, float, str]] = []
        for ev in self.events:
            if isinstance(ev, WorkerCrash):
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


def parse_faults(spec: Union[str, Path]) -> FaultSchedule:
    """Build a schedule from inline JSON or a JSON file path.

    Accepts either a JSON list of event objects or ``{"events": [...]}``
    (no other key); each object needs a ``"kind"`` from :data:`EVENT_KINDS`
    plus that event's fields::

        [{"kind": "loss_burst", "start": 2.0, "duration": 5.0,
          "loss_rate": 0.2},
         {"kind": "worker_crash", "worker": 3, "before_epoch": 2}]
    """
    text = str(spec).strip()
    if not text.startswith(("[", "{")):
        try:
            text = Path(text).read_text()
        except OSError as exc:
            raise ValueError(
                f"cannot read fault file {text}: {exc.strerror or exc}"
            ) from exc
    payload = json.loads(text)
    if isinstance(payload, dict):
        # Any other key (a typo such as "event") would silently run fault-free.
        if set(payload) != {"events"}:
            raise ValueError(
                f"fault spec object takes only an 'events' key, got {sorted(payload)}"
            )
        payload = payload["events"]
    if not isinstance(payload, list):
        raise ValueError("fault spec must be a JSON list or {'events': [...]}")
    events = []
    for entry in payload:
        if not isinstance(entry, dict) or "kind" not in entry:
            raise ValueError(f"fault entry needs a 'kind' field: {entry!r}")
        entry = dict(entry)
        kind = entry.pop("kind")
        cls = EVENT_KINDS.get(kind)
        if cls is None:
            raise ValueError(
                f"unknown fault kind {kind!r}; expected one of {sorted(EVENT_KINDS)}"
            )
        if "nodes" in entry and entry["nodes"] is not None:
            entry["nodes"] = tuple(entry["nodes"])
        try:
            events.append(cls(**entry))
        except TypeError as exc:  # a missing or unknown field
            raise ValueError(f"fault {kind!r}: {exc}") from exc
    return FaultSchedule(tuple(events))


__all__ = [
    "BandwidthDip",
    "EVENT_KINDS",
    "FaultEvent",
    "FaultSchedule",
    "LinkFlap",
    "LossBurst",
    "StragglerSlowdown",
    "WorkerCrash",
    "parse_faults",
]
