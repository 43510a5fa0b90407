"""Metric recording and reporting for the paper's five metrics (§5.1.4):
throughput, top-1/F1, iterations-to-accuracy, BST, time-to-accuracy curves —
plus BCT for the co-located-PS overhead study (§5.4)."""

from repro._lazy import lazy_exports

__all__ = [
    "EpochRecord",
    "IterationRecord",
    "Recorder",
    "format_series",
    "format_table",
    "render_timeline",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    __all__,
    {
        ".recorder": ("EpochRecord", "IterationRecord", "Recorder"),
        ".report": ("format_series", "format_table"),
        ".timeline": ("render_timeline",),
    },
)
