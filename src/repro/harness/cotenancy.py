"""Co-tenant scenario builders for the multi-job runner.

Small factories that turn workload cards into ready-to-run
:class:`~repro.multijob.JobSpec` lists, mirroring what
:mod:`repro.harness.workloads` does for single trainers. The canonical
scenario — an OSP tenant sharing hosts with a best-effort BSP tenant — is
what ``benchmarks/bench_multijob.py`` and ``repro multirun`` default to.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.harness.workloads import WorkloadConfig
from repro.multijob.job import JobSpec, background_job
from repro.multijob.runner import MultiJobRunner


def osp_with_background(
    card_name: str = "vgg16-cifar10",
    n_workers: int = 4,
    n_epochs: int = 3,
    iterations_per_epoch: int = 6,
    sigma: float = 0.1,
    seed: int = 7,
) -> list[JobSpec]:
    """The paper-motivated pair: a latency-sensitive OSP job plus a
    best-effort BSP tenant whose traffic is demoted to BULK. Both run the
    same card and seed.

    Under priority scheduling the OSP job's RS stage preempts the
    background tenant's bulk pushes; with priorities off both compete at
    fair share — the gap is the isolation the multijob bench guards.
    """
    from repro.core.osp import OSP
    from repro.sync import BSP

    cfg = WorkloadConfig(
        card_name,
        n_workers=n_workers,
        n_epochs=n_epochs,
        iterations_per_epoch=iterations_per_epoch,
        sigma=sigma,
        seed=seed,
    )
    return [
        JobSpec(name="osp", workload=cfg, sync_factory=OSP),
        background_job("bulk", cfg, BSP),
    ]


def shared_fabric_runner(
    jobs: Sequence[JobSpec], gpus_per_host: Optional[int] = None, **kwargs
) -> MultiJobRunner:
    """A runner with the co-location the contention scenarios rely on:
    shared placement, one host slot per tenant, and (by default) enough
    GPUs per host that compute never serialises — the jobs contend on the
    network alone. Pass ``gpus_per_host=1`` to study GPU contention too.
    """
    n = len(jobs)
    return MultiJobRunner(
        jobs,
        placement="shared",
        slots_per_host=n,
        gpus_per_host=n if gpus_per_host is None else gpus_per_host,
        **kwargs,
    )


__all__ = ["osp_with_background", "shared_fabric_runner"]
