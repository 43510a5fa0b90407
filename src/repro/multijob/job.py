"""Job specifications for multi-job co-tenancy.

A :class:`JobSpec` names one independent training job — its workload
card/shape, its sync model, and its tenant class — that the
:class:`~repro.multijob.runner.MultiJobRunner` admits, places onto the
shared node pool, and runs over the shared fabric. Each job keeps its own
:class:`~repro.cluster.spec.ClusterSpec` (derived from the workload
config) and its own recorder; only the clock and the network are shared.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.netsim.prio import CLASS_NAMES, PRIO_BULK

if TYPE_CHECKING:  # harness imports this module back (cotenancy builders)
    from repro.harness.workloads import WorkloadConfig

#: Job names become counter segments (``netsim.job_bytes.{job}``) and
#: timeseries-track segments (``multijob.{job}.active_flows``); the
#: registry's ``{...}`` wildcards match exactly one dot-free segment.
_NAME_RE = re.compile(r"[A-Za-z0-9_-]+")


@dataclass(frozen=True)
class JobSpec:
    """One co-tenant training job.

    Parameters
    ----------
    name:
        Unique tenant name (letters/digits/``_``/``-`` only — it becomes a
        counter and track segment).
    workload:
        The job's workload shape (card, workers, epochs, ...). The
        embedded link spec is *not* used on the shared fabric: the pool's
        links carry all tenants.
    sync_factory:
        Zero-argument callable returning a **fresh** sync-model instance
        (sync models hold per-run state and are single-use).
    mode:
        ``"timing"`` (paper-scale timing engine, the default) or
        ``"numeric"`` (real gradients on the card's mini model).
    default_prio:
        Optional priority-class override for the job's *default-class*
        flows: every flow the job submits without an explicit class
        (NORMAL) is re-tagged to this class (``Placement.default_prio``).
        Flows with an explicit class (OSP's HIGH RS, URGENT GIB, BULK
        ICS) keep it. Use :func:`background_job` for the common
        demote-to-BULK tenant.
    """

    name: str
    workload: WorkloadConfig
    sync_factory: Callable[[], Any]
    mode: str = "timing"
    default_prio: Optional[int] = None
    numeric_kwargs: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not _NAME_RE.fullmatch(self.name):
            raise ValueError(
                f"job name {self.name!r} must match {_NAME_RE.pattern} "
                "(it becomes a counter/track segment)"
            )
        if self.mode not in ("timing", "numeric"):
            raise ValueError(f"mode must be 'timing' or 'numeric', got {self.mode!r}")
        if self.default_prio is not None and self.default_prio not in CLASS_NAMES:
            raise ValueError(f"unknown priority class {self.default_prio!r}")
        # The trainer is built on admission, mid-run: refuse a shape no
        # trainer can be built from here, where the caller can still answer.
        self.workload.check()

    @property
    def n_nodes(self) -> int:
        """Nodes this job places: its workers plus its PS node(s)."""
        return self.workload.n_workers + (
            0 if self.workload.colocated_ps else self.workload.n_ps
        )

    def build_trainer(self, env, network, placement):
        """Fresh :class:`~repro.cluster.trainer.DistributedTrainer` for
        this job over the shared environment and network, on ``placement``."""
        from repro.harness.workloads import numeric_trainer, timing_trainer

        sync_model = self.sync_factory()
        kwargs = dict(env=env, network=network, placement=placement)
        if self.mode == "numeric":
            return numeric_trainer(
                self.workload, sync_model, **self.numeric_kwargs, **kwargs
            )
        return timing_trainer(self.workload, sync_model, **kwargs)


def background_job(name: str, workload: WorkloadConfig, sync_factory) -> JobSpec:
    """A best-effort tenant: all of its default-class traffic is demoted
    to BULK, so under priority scheduling it yields to every co-tenant's
    latency-sensitive stages (the P3 regime the bench demonstrates)."""
    return JobSpec(
        name=name,
        workload=workload,
        sync_factory=sync_factory,
        default_prio=PRIO_BULK,
    )


__all__ = ["JobSpec", "background_job"]
