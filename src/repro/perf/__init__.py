"""Performance tooling: microbenchmark harness + parallel sweep executor.

* :mod:`repro.perf.executor` — fork-based worker-pool ``parallel_map`` used
  by :mod:`repro.harness.sweep` and the ablation benchmark drivers to fan
  simulation points across cores (``-j1`` falls back to plain serial).
* :mod:`repro.perf.hotpath` — the ``repro perf`` microbenchmark harness:
  times the PS/PGP/LGP/sync hot path with and without the flat arena, plus
  end-to-end numeric and timing runs, and writes/validates
  ``BENCH_hotpath.json`` (the perf-regression baseline guarded in tier-1).

Host time end to end and per layer is ``bench/`` (``make hostbench``).
"""

from repro.perf.executor import parallel_map
from repro.perf.hotpath import (
    BENCH_SCHEMA,
    REQUIRED_FIELDS,
    run_hotpath_bench,
    validate_bench,
)

__all__ = [
    "BENCH_SCHEMA",
    "REQUIRED_FIELDS",
    "parallel_map",
    "run_hotpath_bench",
    "validate_bench",
]
