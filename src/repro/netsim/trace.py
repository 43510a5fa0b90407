"""Trace events for flow and iteration records.

Converts flow records and iteration records into the Trace Event Format
(the JSON consumed by ``chrome://tracing`` / Perfetto), so a simulated
training run can be inspected on a real timeline UI: one row per node for
transfers, one row per worker for compute/sync phases. The file itself is
written by :func:`repro.obs.chrome.write_unified_trace`.
"""

from __future__ import annotations

from typing import Iterable

from repro.metrics.recorder import IterationRecord
from repro.netsim.flows import FlowRecord

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


def iterations_to_trace_events(records: Iterable[IterationRecord]) -> list[dict]:
    """Two events per iteration: a compute span and a sync span."""
    events = []
    for r in records:
        base = {
            "cat": "training",
            "ph": "X",
            "pid": "workers",
            "tid": f"worker {r.worker}",
        }
        events.append(
            {
                **base,
                "name": f"compute it{r.iteration}",
                "ts": r.start_time * _US,
                "dur": max(1.0, r.compute_time * _US),
                "args": {"loss": r.loss},
            }
        )
        events.append(
            {
                **base,
                "name": f"sync it{r.iteration}",
                "ts": (r.start_time + r.compute_time) * _US,
                "dur": max(1.0, r.sync_time * _US),
                "args": {},
            }
        )
    return events


__all__ = [
    "flows_to_trace_events",
    "iterations_to_trace_events",
]
