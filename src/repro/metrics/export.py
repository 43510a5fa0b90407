"""Plain-dict (de)serialisation of a :class:`Recorder`.

A checkpoint stores the recorder this way, so a resumed run continues the
history it was interrupted in.
"""

from __future__ import annotations

import dataclasses

from repro.metrics.recorder import EpochRecord, IterationRecord, Recorder


class ExportError(ValueError):
    """A persisted payload does not match the recorder schema."""


def _build_record(cls, payload: dict, where: str):
    """Construct a record dataclass, naming any schema mismatch.

    A hand-edited or version-skewed JSON file should fail with a message
    that says *which* entry is wrong and *how*, not a bare ``TypeError``
    from the dataclass constructor.
    """
    if not isinstance(payload, dict):
        raise ExportError(
            f"{where}: expected an object, got {type(payload).__name__}"
        )
    expected = {f.name for f in dataclasses.fields(cls)}
    missing = sorted(expected - set(payload))
    unknown = sorted(set(payload) - expected)
    if missing or unknown:
        parts = []
        if missing:
            parts.append(f"missing fields {missing}")
        if unknown:
            parts.append(f"unknown fields {unknown}")
        raise ExportError(f"{where}: {'; '.join(parts)}")
    return cls(**payload)


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


def _section(payload: dict, key: str, kind: type):
    """``payload[key]`` (empty when missing), refused unless it is a ``kind``."""
    value = payload.get(key, kind())
    if not isinstance(value, kind):
        expected = "a list" if kind is list else "an object"
        raise ExportError(f"{key}: expected {expected}, got {type(value).__name__}")
    return value


def recorder_from_dict(payload: dict) -> Recorder:
    """Inverse of :func:`recorder_to_dict` (summary is recomputed)."""
    rec = Recorder()
    for i, d in enumerate(_section(payload, "iterations", list)):
        rec.record_iteration(_build_record(IterationRecord, d, f"iterations[{i}]"))
    for i, d in enumerate(_section(payload, "epochs", list)):
        rec.record_epoch(_build_record(EpochRecord, d, f"epochs[{i}]"))
    for name, value in _section(payload, "counters", dict).items():
        # Byte counters are floats; truncating them would shift a resumed
        # run's totals. A bool is a JSON `true`, not a count.
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ExportError(
                f"counters[{name!r}]: expected a number, got {type(value).__name__}"
            )
        rec.incr(name, value)
    return rec


__all__ = [
    "ExportError",
    "recorder_from_dict",
    "recorder_to_dict",
]
