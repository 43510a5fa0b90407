"""Experiment harness: the paper's workloads and figure experiments.

:mod:`repro.harness.workloads` builds ready-to-run (spec, plan, engine)
triples for the five evaluation workloads (§5.1.2) in timing or numeric
mode; :mod:`repro.harness.figures` implements one function per paper
figure/table, returning plain data structures the benchmarks print;
:mod:`repro.harness.priority` does the same for the two
priority-scheduling experiments.
"""

from repro._lazy import lazy_exports

__all__ = [
    "EVALUATION_WORKLOADS",
    "MultiSeedResult",
    "SeedStats",
    "WorkloadConfig",
    "figures",
    "make_numeric_dataset",
    "numeric_trainer",
    "osp_beside_bulk_cotenant",
    "osp_with_background",
    "rs_stage_waits",
    "rs_under_bulk_tenants",
    "run_seeds",
    "shared_fabric_runner",
    "sweep",
    "timing_trainer",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    __all__,
    {
        ".workloads": (
            "EVALUATION_WORKLOADS",
            "WorkloadConfig",
            "make_numeric_dataset",
            "numeric_trainer",
            "timing_trainer",
        ),
        ".cotenancy": ("osp_with_background", "shared_fabric_runner"),
        ".priority": (
            "osp_beside_bulk_cotenant",
            "rs_stage_waits",
            "rs_under_bulk_tenants",
        ),
        ".stats": ("MultiSeedResult", "SeedStats", "run_seeds"),
    },
)
