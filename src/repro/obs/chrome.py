"""The unified Chrome/Perfetto trace: the one record of a traced run.

:func:`trace_document` turns a traced run into a single
Trace-Event-Format document combining every observability stream:

* tracer **spans** → complete (``X``) events, grouped by track (``pid``)
  and actor (``tid``) so Perfetto shows one row per worker, one per
  worker's ICS background lane, and one for the PS;
* tracer **instants** (fault activations, GIB broadcasts) → ``i`` events;
* tracer **counter tracks** (in-flight ICS bytes, S(G^u) budget, quorum
  size, network backlog) → ``C`` events;
* network **flow records** → ``X`` events on the ``network`` track, with
  structured phase/worker/iteration args.

Machine-readable extras (per-layer traffic, recorder counters, the sync
model name, the run's wall clock) ride along under the top-level
``otherData`` key, which the Trace Event Format reserves for exactly this
and viewers ignore — so the same document feeds Perfetto, ``repro report``
and ``repro report --compare`` (via :func:`read_trace`), and the
in-memory :func:`~repro.obs.overlap.overlap_report_from_run`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Optional, Union

from repro.bounds import INDEX, NON_NEGATIVE, REAL, Tagged, read_record
from repro.netsim.flows import FlowRecord
from repro.obs.tracer import Tracer

#: Trace timestamps are microseconds.
_US = 1e6


def _tag_args(tag) -> dict:
    """Structured attribution from the conventional flow-tag tuple
    ``(phase, worker[, iteration])`` used by all sync models."""
    if not (isinstance(tag, tuple) and tag and isinstance(tag[0], str)):
        return {}
    args: dict = {"phase": tag[0]}
    if len(tag) > 1 and isinstance(tag[1], int):
        args["worker"] = tag[1]
    if len(tag) > 2 and isinstance(tag[2], int):
        args["iteration"] = tag[2]
    return args


def flows_to_trace_events(records: Iterable[FlowRecord]) -> list[dict]:
    """One complete ('X') event per flow, on the source node's row."""
    events = []
    for r in records:
        args = {"bytes": r.size, "src": str(r.src), "dst": str(r.dst)}
        args.update(_tag_args(r.tag))
        events.append(
            {
                "name": str(r.tag) if r.tag is not None else f"flow{r.fid}",
                "cat": "network",
                "ph": "X",
                "ts": r.start_time * _US,
                "dur": max(1.0, r.duration * _US),
                "pid": "network",
                "tid": f"node {r.src} -> {r.dst}",
                "args": args,
            }
        )
    return events


def tracer_to_trace_events(tracer: Tracer, job: Optional[str] = None) -> list[dict]:
    """Convert a tracer's spans/instants/counters to trace events.

    Only the spans of ``job`` are kept (``None``: a single-tenant run);
    instants and counter tracks belong to the shared fabric and are kept
    whole.
    """
    events: list[dict] = []
    horizon = tracer.now
    for span in tracer.spans:
        if span.job != job:
            continue
        end = span.end if span.end is not None else horizon
        args = {"sid": span.sid}
        if span.parent is not None:
            args["parent"] = span.parent
        if span.worker is not None:
            args["worker"] = span.worker
        if span.iteration is not None:
            args["iteration"] = span.iteration
        args.update(span.attrs)
        events.append(
            {
                "name": span.name,
                "cat": span.cat,
                "ph": "X",
                "ts": span.start * _US,
                "dur": max(1.0, (end - span.start) * _US),
                "pid": span.track,
                "tid": span.actor,
                "args": args,
            }
        )
    for inst in tracer.instants:
        events.append(
            {
                "name": inst.name,
                "cat": "instant",
                "ph": "i",
                "ts": inst.time * _US,
                "pid": inst.track,
                "tid": inst.actor or inst.track,
                "s": "g",  # global scope: draw the marker across all tracks
                "args": dict(inst.attrs),
            }
        )
    for name, samples in tracer.counters.items():
        short = name.rsplit(".", 1)[-1]
        for t, value in samples:
            events.append(
                {
                    "name": name,
                    "cat": "counter",
                    "ph": "C",
                    "ts": t * _US,
                    "pid": "counters",
                    "tid": name,
                    "args": {short: value},
                }
            )
    return events


def trace_document(result) -> dict:
    """The unified trace of a traced
    :class:`~repro.cluster.trainer.TrainingResult`, as a JSON-able dict.

    It holds the run's job slice: the flows and spans whose ``job`` is
    the run's placement job, so a co-tenant's trace never shows its
    neighbour's traffic.
    """
    tracer = result.tracer
    if tracer is None:
        raise ValueError(
            "the run was not traced: call enable_tracing() before run()"
        )
    ctx = result.context
    job = ctx.placement.job
    events = flows_to_trace_events(r for r in ctx.network.records if r.job == job)
    events += tracer_to_trace_events(tracer, job)
    events.sort(key=lambda e: (e["ts"], e.get("pid", ""), e.get("tid", "")))

    # wall_time is the job's own end time, also on a shared fabric
    other: dict = {"sync": result.sync_name, "wallTime": float(result.wall_time)}
    if tracer.traffic:
        traffic: dict[str, dict[str, float]] = {}
        for (stage, layer), nbytes in tracer.traffic.items():
            traffic.setdefault(stage, {})[layer] = nbytes
        other["traffic"] = traffic
    other["recorderCounters"] = dict(result.recorder.counters)
    return {"traceEvents": events, "displayTimeUnit": "ms", "otherData": other}


def write_unified_trace(path: Union[str, Path], result) -> int:
    """Write :func:`trace_document` of ``result`` to ``path``; returns the
    event count."""
    doc = trace_document(result)
    Path(path).write_text(json.dumps(doc))
    return len(doc["traceEvents"])


#: A complete (``X``) event: a span, or a flow on the ``network`` track.
#: Its ``args`` carry the span's own attributes besides these.
_SPAN = {
    "name?": str,
    "cat?": str,
    "ph": str,
    "ts": NON_NEGATIVE,
    "dur?": NON_NEGATIVE,
    "pid?": str,
    "tid?": str,
    "args?": {"worker?": INDEX, "iteration?": INDEX, "bytes?": NON_NEGATIVE, "*": object},
}

#: The unified trace :func:`trace_document` writes. Events other than ``X``
#: are drawn by a viewer, not read.
TRACE = {
    "traceEvents": [Tagged("ph", {"X": _SPAN}, dict)],
    "displayTimeUnit?": str,
    "otherData?": {
        "sync?": str,
        "wallTime?": NON_NEGATIVE,
        "traffic?": {"*": {"*": NON_NEGATIVE}},
        "recorderCounters?": {"*": REAL},
    },
}


def read_trace(path: Union[str, Path]) -> dict:
    """Load a unified trace file read as :data:`TRACE`, refusing with a
    ``ValueError`` that names the file and the first key
    :func:`~repro.obs.overlap.overlap_report_from_trace` or
    :func:`~repro.obs.compare.compare_runs` could not read. The trace must
    also hold at least one complete (``"X"``) span: a run records one per
    iteration at least, so a trace without any has no iterations to report."""
    doc = read_record(json.loads(Path(path).read_text()), TRACE, str(path))
    if not any(ev.get("ph") == "X" for ev in doc["traceEvents"]):
        raise ValueError(
            f"{path}: traceEvents holds no complete ('X') span, so no iteration "
            "to report (write a trace with `repro run --trace FILE`)"
        )
    return doc


__all__ = [
    "flows_to_trace_events",
    "read_trace",
    "trace_document",
    "tracer_to_trace_events",
    "write_unified_trace",
]
