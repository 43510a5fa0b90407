"""Differential-replay harness: run two configurations, diff the runs.

The simulator's strongest correctness lever is determinism: two
configurations that *claim* equivalence — a resumed-from-checkpoint run
vs. an uninterrupted one, a refactored sync model vs. its baseline — must
produce identical event streams. This module captures a normalized stream
per run (iteration records in recorder order, epoch evaluations, counters,
a SHA-256 digest of the final parameter plane, the final wall time), and
on mismatch *bisects* the streams by prefix digest to localize the first
divergent event, decorating it with the covering span context from
``repro.obs`` when the run was traced.

Bisection matters: a fig6b-scale run records thousands of events and a
single float divergence early on cascades into everything after it —
``first_divergence`` needs O(log n) prefix-digest probes to pin the first
one instead of eyeballing two dumps.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence

from repro.bounds import INDEX, read_record
from repro.ckpt.snapshot import params_plane


@dataclass(frozen=True)
class ReplayEvent:
    """One normalized, comparable record of a run's event stream."""

    kind: str  # "iteration" | "epoch" | "counter" | "params" | "end"
    key: tuple
    value: tuple

    def render(self) -> str:
        key = ":".join(str(k) for k in self.key)
        vals = ", ".join(
            f"{v:.9g}" if isinstance(v, float) else str(v) for v in self.value
        )
        return f"{self.kind}[{key}] = ({vals})"


#: Counter namespaces excluded from the stream: checkpoint bookkeeping
#: (``ckpt.restore`` legitimately differs between a resumed and an
#: uninterrupted run), the checker's own counters, network-scheduler
#: work counters (``netsim.rerates`` etc. count *host-side* recomputes —
#: how often the scheduler re-solves, not what it computes), and the
#: multi-job runner's post-run interference attribution (a single job
#: routed through ``repro.multijob`` must stream bit-identically to a
#: direct run).
_EXCLUDED_COUNTER_PREFIXES = ("ckpt.", "check.", "netsim.", "multijob.")


def capture_stream(trainer, result) -> list[ReplayEvent]:
    """Normalize a finished run into a comparable event stream.

    Iteration records keep recorder (event-dispatch) order, so any
    scheduling divergence shows up positionally, not just numerically.
    """
    events: list[ReplayEvent] = []
    for rec in result.recorder.iterations:
        events.append(
            ReplayEvent(
                "iteration",
                (rec.worker, rec.iteration),
                (
                    rec.start_time,
                    rec.compute_time,
                    rec.sync_time,
                    float(rec.loss),
                    rec.samples,
                ),
            )
        )
    for ep in result.recorder.epochs:
        events.append(
            ReplayEvent(
                "epoch",
                (ep.epoch,),
                (ep.time, float(ep.train_loss), float(ep.metric), ep.iterations_done),
            )
        )
    for name in sorted(result.recorder.counters):
        if name.startswith(_EXCLUDED_COUNTER_PREFIXES):
            continue
        events.append(
            ReplayEvent("counter", (name,), (result.recorder.counters[name],))
        )
    if trainer.ps.numeric:
        plane = params_plane(trainer.engine, trainer.ps)
        digest = hashlib.sha256(plane.tobytes()).hexdigest()
        events.append(ReplayEvent("params", ("sha256",), (digest,)))
    events.append(ReplayEvent("end", ("wall_time",), (result.wall_time,)))
    return events


#: dump_stream/load_stream wire format version.
STREAM_SCHEMA = "repro.replay_stream/1"


def dump_stream(events: Sequence[ReplayEvent], path: str | Path) -> Path:
    """Serialize a replay stream to JSON-lines.

    Line 1 is a schema header; each following line is one event as
    ``{"kind", "key", "value"}``. Floats survive the round trip exactly
    (``json`` emits ``repr``-style shortest float64 representations), so a
    loaded stream diffs bit-identically against a fresh capture — which is
    what makes committed golden streams a meaningful CI gate.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [json.dumps({"schema": STREAM_SCHEMA, "events": len(events)})]
    for ev in events:
        lines.append(
            json.dumps(
                {"kind": ev.kind, "key": list(ev.key), "value": list(ev.value)}
            )
        )
    path.write_text("\n".join(lines) + "\n")
    return path


#: A stream's first line, then one record per event.
STREAM_HEADER = {"schema": frozenset({STREAM_SCHEMA}), "events?": INDEX}
STREAM_EVENT = {"kind": str, "key": list, "value": list}


def load_stream(path: str | Path) -> list[ReplayEvent]:
    """Load a stream written by :func:`dump_stream`: its header reads as
    :data:`STREAM_HEADER` and each line as :data:`STREAM_EVENT`, and a
    refusal is one ``ValueError`` naming the file and the line.

    JSON has no tuples, so keys/values come back as lists and are
    re-tupled here; ints and floats keep their JSON types, matching what
    :func:`capture_stream` produced.
    """
    path = Path(path)
    lines = path.read_text().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty replay stream")

    def read(n: int, record: dict) -> dict:
        try:
            doc = json.loads(lines[n])
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: line {n + 1}: not JSON ({exc})") from exc
        return read_record(doc, record, f"{path}: line {n + 1}")

    header = read(0, STREAM_HEADER)
    events = [
        ReplayEvent(doc["kind"], tuple(doc["key"]), tuple(doc["value"]))
        for doc in (read(n, STREAM_EVENT) for n in range(1, len(lines)))
    ]
    if len(events) != header.get("events", len(events)):
        raise ValueError(
            f"{path}: truncated stream ({len(events)} events, header "
            f"promised {header.get('events')})"
        )
    return events


def _witness(ev: ReplayEvent) -> str:
    # repr round-trips float64 exactly, so bit-level divergence is seen.
    return repr((ev.kind, ev.key, ev.value))


def stream_digest(events: Sequence[ReplayEvent]) -> str:
    """SHA-256 fingerprint of a whole replay stream (hex).

    Two runs are bit-identical iff their digests match — the compact form
    of :func:`first_divergence` used by bench fingerprints, where only the
    yes/no (plus a committable witness string) is needed.
    """
    h = hashlib.sha256()
    for ev in events:
        h.update(_witness(ev).encode())
        h.update(b"\x00")
    return h.hexdigest()


def first_divergence(
    a: Sequence[ReplayEvent], b: Sequence[ReplayEvent]
) -> Optional[int]:
    """Index of the first event where the two streams differ (None if
    identical; the shorter length if one is a strict prefix of the other).
    Events are compared by the same witness :func:`stream_digest` hashes."""
    for index, (ev_a, ev_b) in enumerate(zip(a, b)):
        if _witness(ev_a) != _witness(ev_b):
            return index
    return None if len(a) == len(b) else min(len(a), len(b))


def span_context(tracer, event: Optional[ReplayEvent]) -> tuple[str, ...]:
    """Span names from ``repro.obs`` covering a divergent iteration event.

    Returns the traced spans attributed to the same (worker, iteration),
    in start order — the phase path (``iteration > compute > rs_push ...``)
    the divergence sits inside. Empty when untraced or not attributable.
    """
    if tracer is None or event is None or event.kind != "iteration":
        return ()
    worker, iteration = event.key
    spans = [
        s
        for s in tracer.spans
        if s.worker == worker and s.iteration == iteration
    ]
    spans.sort(key=lambda s: (s.start, s.sid))
    return tuple(f"{s.name}@t={s.start:.6f}" for s in spans[:12])


@dataclass(frozen=True)
class Divergence:
    """The first divergent event of a replay, with span context."""

    index: int
    event_a: Optional[ReplayEvent]
    event_b: Optional[ReplayEvent]
    context_a: tuple[str, ...] = ()
    context_b: tuple[str, ...] = ()


@dataclass(frozen=True)
class ReplayReport:
    """Outcome of one differential replay."""

    label_a: str
    label_b: str
    n_events: tuple[int, int]
    divergence: Optional[Divergence]

    @property
    def identical(self) -> bool:
        return self.divergence is None

    def to_dict(self) -> dict:
        out = {
            "a": self.label_a,
            "b": self.label_b,
            "events": list(self.n_events),
            "identical": self.identical,
        }
        if self.divergence is not None:
            d = self.divergence
            out["divergence"] = {
                "index": d.index,
                "a": d.event_a.render() if d.event_a else None,
                "b": d.event_b.render() if d.event_b else None,
                "context_a": list(d.context_a),
                "context_b": list(d.context_b),
            }
        return out

    def render(self) -> str:
        head = (
            f"replay {self.label_a!r} vs {self.label_b!r}: "
            f"{self.n_events[0]}/{self.n_events[1]} events"
        )
        if self.identical:
            return f"{head} — identical"
        d = self.divergence
        lines = [f"{head} — FIRST DIVERGENCE at event {d.index}:"]
        lines.append(f"  {self.label_a}: "
                     f"{d.event_a.render() if d.event_a else '<stream ended>'}")
        lines.append(f"  {self.label_b}: "
                     f"{d.event_b.render() if d.event_b else '<stream ended>'}")
        if d.context_a:
            lines.append(f"  span context ({self.label_a}): "
                         + " > ".join(d.context_a))
        if d.context_b:
            lines.append(f"  span context ({self.label_b}): "
                         + " > ".join(d.context_b))
        return "\n".join(lines)


def _run_one(build: Callable[[], object], trace: bool):
    trainer = build()
    if trace:
        trainer.enable_tracing()
    result = trainer.run()
    return trainer, result, capture_stream(trainer, result)


def _diff(stream_a, stream_b, tracer_a, tracer_b, label_a, label_b) -> ReplayReport:
    index = first_divergence(stream_a, stream_b)
    divergence = None
    if index is not None:
        event_a = stream_a[index] if index < len(stream_a) else None
        event_b = stream_b[index] if index < len(stream_b) else None
        divergence = Divergence(
            index=index,
            event_a=event_a,
            event_b=event_b,
            context_a=span_context(tracer_a, event_a),
            context_b=span_context(tracer_b, event_b),
        )
    return ReplayReport(
        label_a=label_a,
        label_b=label_b,
        n_events=(len(stream_a), len(stream_b)),
        divergence=divergence,
    )


def differential_replay(
    build_a: Callable[[], object],
    build_b: Callable[[], object],
    label_a: str = "A",
    label_b: str = "B",
) -> ReplayReport:
    """Run two trainer factories and diff their event streams.

    ``build_*`` must each construct a *fresh* :class:`DistributedTrainer`
    (trainers are single-use). Both run with the passive tracer attached,
    so a divergence carries span context; it does not perturb virtual time.
    """
    _ta, result_a, stream_a = _run_one(build_a, True)
    _tb, result_b, stream_b = _run_one(build_b, True)
    return _diff(
        stream_a, stream_b, result_a.tracer, result_b.tracer, label_a, label_b
    )


def replay_resume(
    make_trainer: Callable[..., object],
    workdir,
    checkpoint_every: int = 2,
    trace: bool = True,
) -> ReplayReport:
    """Resumed-from-checkpoint vs. uninterrupted run.

    ``make_trainer(**trainer_kwargs)`` must build a fresh trainer
    forwarding the kwargs (``checkpoint_every``, ``checkpoint_dir``,
    ``resume_from``) to :class:`DistributedTrainer`. The base run
    checkpoints every ``checkpoint_every`` epochs under ``workdir``; the
    second run resumes from the *first* checkpoint and must replay the
    remainder bit-identically (recorder history is spliced on restore, so
    the streams align event-for-event).
    """
    workdir = Path(workdir)
    base_dir = workdir / "base"
    resumed_dir = workdir / "resumed"

    def build_base():
        return make_trainer(
            checkpoint_every=checkpoint_every, checkpoint_dir=base_dir
        )

    _ta, result_a, stream_a = _run_one(build_base, trace)
    checkpoints = sorted(base_dir.glob("ckpt-epoch*.npz"))
    if not checkpoints:
        raise RuntimeError(
            f"base run wrote no checkpoints under {base_dir} "
            f"(checkpoint_every={checkpoint_every} vs. too few epochs?)"
        )

    def build_resumed():
        return make_trainer(
            checkpoint_every=checkpoint_every,
            checkpoint_dir=resumed_dir,
            resume_from=str(checkpoints[0]),
        )

    _tb, result_b, stream_b = _run_one(build_resumed, trace)
    return _diff(
        stream_a, stream_b, result_a.tracer, result_b.tracer,
        "uninterrupted", f"resumed@{checkpoints[0].name}",
    )


__all__ = [
    "Divergence",
    "STREAM_SCHEMA",
    "ReplayEvent",
    "ReplayReport",
    "capture_stream",
    "differential_replay",
    "dump_stream",
    "first_divergence",
    "load_stream",
    "replay_resume",
    "span_context",
    "stream_digest",
]
