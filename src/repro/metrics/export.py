"""Plain-dict (de)serialisation of a :class:`Recorder`.

A checkpoint stores the recorder this way, so a resumed run continues the
history it was interrupted in.
"""

from __future__ import annotations

from repro.bounds import REAL, read_record, record_of
from repro.metrics.recorder import EpochRecord, IterationRecord, Recorder


class ExportError(ValueError):
    """A persisted payload does not match the recorder schema."""


#: The record :func:`recorder_to_dict` writes. A loss or a metric may be
#: NaN (a diverged run); counters are ints or floats (byte counters are
#: floats: truncating them would shift a resumed run's totals); the summary
#: is recomputed, never read.
RECORDER = {
    "iterations?": [{**record_of(IterationRecord), "loss": float}],
    "epochs?": [{**record_of(EpochRecord), "train_loss": float, "metric": float}],
    "counters?": {"*": REAL},
    "summary?": dict,
}


def recorder_to_dict(recorder: Recorder) -> dict:
    """Plain-dict form of a recorder (JSON-serialisable)."""
    return {
        "iterations": [vars(r).copy() for r in recorder.iterations],
        "epochs": [vars(r).copy() for r in recorder.epochs],
        "counters": dict(recorder.counters),
        "summary": {
            "throughput": recorder.throughput(),
            "mean_bst": recorder.mean_bst(),
            "mean_bct": recorder.mean_bct(),
            "best_metric": recorder.best_metric(),
            "iterations_to_best": recorder.iterations_to_best(),
            "total_iterations": recorder.total_iterations,
            "end_time": recorder.end_time(),
        },
    }


def recorder_from_dict(payload: dict) -> Recorder:
    """Inverse of :func:`recorder_to_dict` (summary is recomputed)."""
    try:
        read_record(payload, RECORDER, "recorder")
    except ValueError as exc:
        raise ExportError(str(exc)) from exc
    rec = Recorder()
    for d in payload.get("iterations", []):
        rec.record_iteration(IterationRecord(**d))
    for d in payload.get("epochs", []):
        rec.record_epoch(EpochRecord(**d))
    for name, value in payload.get("counters", {}).items():
        rec.incr(name, value)
    return rec


__all__ = [
    "ExportError",
    "RECORDER",
    "recorder_from_dict",
    "recorder_to_dict",
]
