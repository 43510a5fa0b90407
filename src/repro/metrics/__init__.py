"""Metric recording and reporting for the paper's five metrics (§5.1.4):
throughput, top-1/F1, iterations-to-accuracy, BST, time-to-accuracy curves —
plus BCT for the co-located-PS overhead study (§5.4)."""

from repro.metrics.recorder import EpochRecord, IterationRecord, Recorder
from repro.metrics.report import format_series, format_table
from repro.metrics.timeline import render_timeline

__all__ = [
    "EpochRecord",
    "IterationRecord",
    "Recorder",
    "format_series",
    "format_table",
    "render_timeline",
]
