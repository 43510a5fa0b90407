"""Process-parallel task executor for simulation sweeps.

:mod:`repro.perf.executor` — fork-based worker-pool ``parallel_map`` used by
:mod:`repro.harness.sweep`, ``run_seeds`` and the ablation benchmark drivers
to fan simulation points across cores (``jobs=1``, the default, is plain
serial).

Host time end to end and per layer is ``bench/`` (``make hostbench``).
"""

from repro._lazy import lazy_exports

__all__ = ["parallel_map"]

__getattr__, __dir__ = lazy_exports(
    __name__,
    __all__,
    {
        ".executor": ("parallel_map",),
    },
)
