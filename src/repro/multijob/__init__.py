"""Multi-job co-tenancy on the shared fabric.

Run N independent training jobs — each with its own cluster spec, sync
model, workload card and recorder — over ONE shared simulation clock and
ONE shared network, with admission control, node placement, per-job flow
tagging through the priority scheduler, and cross-job interference
attribution. See ``docs/multijob.md``.
"""

from repro.cluster.spec import Placement
from repro.multijob.job import JobSpec, background_job
from repro.multijob.pool import PLACEMENT_MODES, NodePool
from repro.multijob.report import (
    MULTIJOB_SCHEMA,
    multijob_summary,
    render_report,
)
from repro.multijob.runner import (
    ADMISSION_MODES,
    JobRun,
    JobScheduler,
    MultiJobResult,
    MultiJobRunner,
)

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
