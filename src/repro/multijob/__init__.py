"""Multi-job co-tenancy on the shared fabric.

Run N independent training jobs — each with its own cluster spec, sync
model, workload card and recorder — over ONE shared simulation clock and
ONE shared network, with admission control, node placement, per-job flow
tagging through the priority scheduler, and cross-job interference
attribution. See ``docs/multijob.md``.
"""

from repro._lazy import lazy_exports

__all__ = [
    "ADMISSION_MODES",
    "JobRun",
    "JobScheduler",
    "JobSpec",
    "MULTIJOB_SCHEMA",
    "MultiJobResult",
    "MultiJobRunner",
    "NodePool",
    "PLACEMENT_MODES",
    "Placement",
    "background_job",
    "multijob_summary",
    "render_report",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    __all__,
    {
        "repro.cluster.spec": ("Placement",),
        ".job": ("JobSpec", "background_job"),
        ".pool": ("PLACEMENT_MODES", "NodePool"),
        ".report": ("MULTIJOB_SCHEMA", "multijob_summary", "render_report"),
        ".runner": (
            "ADMISSION_MODES",
            "JobRun",
            "JobScheduler",
            "MultiJobResult",
            "MultiJobRunner",
        ),
    },
)
