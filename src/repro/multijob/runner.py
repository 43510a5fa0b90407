"""The co-tenancy runner: admission, placement, shared-fabric execution.

:class:`MultiJobRunner` runs N independent :class:`~repro.multijob.job.
JobSpec` jobs over ONE shared :class:`~repro.simcore.environment.
Environment` and :class:`~repro.netsim.network.Network`. Each job gets a
small driver process that (1) waits for admission, (2) takes a
:class:`~repro.cluster.spec.Placement` from the
:class:`~repro.multijob.pool.NodePool`, (3) builds its own
:class:`~repro.cluster.trainer.DistributedTrainer` over the shared network
and that placement, (4) runs its workers to completion, and (5) returns its
hosts to the pool (waking queued jobs). Per-job bytes, contended bytes and
overlap seconds are what the network's drain counted for the job's tag.

Admission policies (:data:`ADMISSION_MODES`):

* ``immediate`` — every job starts at t=0; the pool must fit them all.
* ``fifo`` — jobs admit strictly in submission order, each waiting until
  the pool can place it.
* ``bandwidth`` — FIFO ordering plus a fabric-headroom gate: a job only
  admits while the sum of running jobs' estimated offered load (workers ×
  host line rate) stays within ``headroom`` × the pool's aggregate
  capacity — a deterministic stand-in for a telemetry-driven admission
  controller. A job whose load alone exceeds that capacity is refused when
  the runner is built, since it could never admit.

A single job on an ``exclusive`` identity placement reproduces the direct
``DistributedTrainer`` run bit-for-bit (same topology construction, same
process creation order; the job tag only adds bookkeeping) — the
differential test in ``tests/multijob/test_identity.py`` pins this.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

from repro.bounds import POSITIVE, check_bounds
from repro.cluster.spec import Placement
from repro.cluster.trainer import TrainingResult
from repro.multijob.job import JobSpec
from repro.multijob.pool import PLACEMENT_MODES, NodePool
from repro.netsim.network import Network
from repro.simcore.environment import Environment
from repro.simcore.events import Event

ADMISSION_MODES = ("immediate", "fifo", "bandwidth")


@dataclass
class JobRun:
    """One finished job's outcome on the shared fabric."""

    name: str
    result: TrainingResult
    placement: Placement
    submitted: float
    admitted: float
    finished: float
    #: effective bytes the fabric moved for this job
    job_bytes: float = 0.0
    #: of those, bytes moved while ≥1 other tenant had flows in flight
    contended_bytes: float = 0.0
    #: seconds this job had flows in flight, and those shared with a tenant
    active_seconds: float = 0.0
    contended_seconds: float = 0.0

    @property
    def solo_bytes(self) -> float:
        """Bytes moved while no other tenant had flows in flight."""
        return self.job_bytes - self.contended_bytes

    @property
    def queue_wait(self) -> float:
        """Virtual seconds spent waiting for admission."""
        return self.admitted - self.submitted

    @property
    def wall_time(self) -> float:
        """Admission-to-finish virtual seconds (excludes queue wait)."""
        return self.finished - self.admitted

    @property
    def contended_share(self) -> float:
        """Fraction of this job's traffic that faced a co-tenant."""
        return self.contended_bytes / self.job_bytes if self.job_bytes > 0 else 0.0


@dataclass
class MultiJobResult:
    """Everything the report plane needs after a co-tenant run."""

    jobs: dict[str, JobRun]
    wall_time: float
    admission: str
    placement: str
    n_hosts: int
    slots_per_host: int
    gpus_per_host: int
    #: shared-fabric scheduler counters (netsim.* incl. per-job/per-class
    #: byte accounting), snapshotted at collection
    network_stats: dict = field(default_factory=dict)
    #: frozenset(jobs in flight) -> seconds (``Network.job_overlap``)
    job_overlap: dict = field(default_factory=dict)
    tracer: object = None
    sampler: object = None

    def __getitem__(self, name: str) -> JobRun:
        return self.jobs[name]

    def interference_matrix(self) -> dict[str, dict[str, float]]:
        """``matrix[a][b]`` = seconds jobs *a* and *b* overlapped on the
        fabric (symmetric, zero diagonal)."""
        names = list(self.jobs)
        matrix = {a: {b: 0.0 for b in names} for a in names}
        for jobs, seconds in self.job_overlap.items():
            for a in jobs:
                for b in jobs:
                    if a != b:
                        matrix[a][b] += seconds
        return matrix


class JobScheduler:
    """Admission control over the shared pool.

    Driver processes call :meth:`wait_admission` (a generator) before
    placing; the scheduler wakes all waiters whenever an admission or a
    job completion changes what might fit. All policies admit in strict
    submission order (no overtaking), so admission is deterministic.
    """

    BOUNDS = {"headroom": POSITIVE}

    def __init__(
        self,
        env: Environment,
        pool: NodePool,
        mode: str,
        placement: str,
        headroom: float = 1.0,
    ) -> None:
        if mode not in ADMISSION_MODES:
            raise ValueError(
                f"admission mode must be one of {ADMISSION_MODES}, got {mode!r}"
            )
        self.env = env
        self.pool = pool
        self.mode = mode
        self.placement = placement
        self.headroom = headroom
        check_bounds(self)
        self._admitted: set[int] = set()
        self._running_demand: dict[int, float] = {}
        self._waiters: list[Event] = []

    # -- policy -------------------------------------------------------------
    def _demand(self, job: JobSpec) -> float:
        """Estimated offered load: every worker can saturate one line."""
        return job.workload.n_workers * self.pool.link.bandwidth

    def _capacity(self) -> float:
        return self.pool.n_hosts * self.pool.link.bandwidth * self.headroom

    def _over_capacity(self, used: float, job: JobSpec) -> bool:
        return self.mode == "bandwidth" and (
            used + self._demand(job) > self._capacity() + 1e-9
        )

    def check_admissible(self, jobs: Sequence[JobSpec]) -> None:
        """Refuse a job whose driver would wait for a wake-up that never
        comes: one the pool can never place (under ``immediate`` admission
        with every job before it, otherwise alone), or one the bandwidth
        gate could not admit even alone."""
        pool, shared = self.pool, self.placement == "shared"
        room = pool.n_hosts * (pool.slots_per_host if shared else 1)
        needed = 0
        for job in jobs:
            needed = needed + job.n_nodes if self.mode == "immediate" else job.n_nodes
            if needed > room:
                slots = f" x {pool.slots_per_host} slots" if shared else ""
                when = "at once" if self.mode == "immediate" else "alone"
                raise ValueError(
                    f"job {job.name!r} can never be placed: {self.mode} admission "
                    f"needs room for {needed} nodes {when}, and the {self.placement} "
                    f"pool of {pool.n_hosts} hosts{slots} holds {room}"
                )
            if self._over_capacity(0.0, job):
                n_workers, n_hosts = job.workload.n_workers, pool.n_hosts
                raise ValueError(
                    f"job {job.name!r} can never be admitted: {n_workers} workers "
                    f"at line rate exceed headroom {self.headroom:g} x {n_hosts} "
                    f"hosts (bandwidth admission needs headroom >= "
                    f"{n_workers}/{n_hosts})"
                )

    def _may_admit(self, job: JobSpec, idx: int) -> bool:
        if self.mode == "immediate":
            return True
        if any(i < idx and i not in self._admitted for i in range(idx)):
            return False  # strict submission order
        if not self.pool.can_allocate(job.n_nodes, self.placement):
            return False
        return not self._over_capacity(sum(self._running_demand.values()), job)

    # -- driver-side --------------------------------------------------------
    def wait_admission(self, job: JobSpec, idx: int):
        """Generator: yields until the policy admits job ``idx``."""
        while not self._may_admit(job, idx):
            gate = Event(self.env)
            self._waiters.append(gate)
            yield gate
        self._admitted.add(idx)
        self._running_demand[idx] = self._demand(job)
        self._wake()

    def job_done(self, idx: int) -> None:
        self._running_demand.pop(idx, None)
        self._wake()

    def _wake(self) -> None:
        waiters, self._waiters = self._waiters, []
        for gate in waiters:
            gate.succeed()


class MultiJobRunner:
    """Run a set of co-tenant jobs to completion on one shared fabric."""

    def __init__(
        self,
        jobs: Sequence[JobSpec],
        n_hosts: Optional[int] = None,
        placement: str = "exclusive",
        admission: str = "immediate",
        slots_per_host: int = 1,
        gpus_per_host: Optional[int] = None,
        headroom: float = 1.0,
    ) -> None:
        if not jobs:
            raise ValueError("need at least one job")
        names = [j.name for j in jobs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate job names: {names}")
        if placement not in PLACEMENT_MODES:
            raise ValueError(
                f"placement mode must be one of {PLACEMENT_MODES}, got {placement!r}"
            )
        self.jobs = list(jobs)
        self.placement = placement
        self.admission = admission
        if n_hosts is None:
            # Exclusive: room for every job at once (immediate-friendly).
            # Shared: the widest job; co-tenants stack onto host slots.
            if placement == "exclusive":
                n_hosts = sum(j.n_nodes for j in self.jobs)
            else:
                n_hosts = max(j.n_nodes for j in self.jobs)
        self.env = Environment()
        self.pool = NodePool(
            self.env,
            n_hosts,
            slots_per_host=slots_per_host,
            gpus_per_host=gpus_per_host,
        )
        self.network = Network(self.env, self.pool.topology)
        self.scheduler = JobScheduler(
            self.env, self.pool, admission, placement, headroom=headroom
        )
        self.scheduler.check_admissible(self.jobs)
        self._runs: dict[str, JobRun] = {}
        self._tracer = None
        self._sampler = None

    # -- observability ------------------------------------------------------
    def enable_tracing(self):
        """One shared passive tracer across every tenant; spans carry the
        job dimension (``Span.job``), so per-tenant filtering works even
        though worker ids are job-local. Returns the tracer."""
        from repro.obs.tracer import Tracer

        self._tracer = Tracer(self.env)
        self.env.tracer = self._tracer
        return self._tracer

    def enable_sampling(self, interval: float = 1.0, capacity: Optional[int] = None):
        """Attach a MetricSampler with the fabric-wide network probe and
        the per-tenant ``multijob.{job}.*`` probe. Returns the sampler."""
        from repro.obs.timeseries import (
            FabricLedger,
            MetricSampler,
            MultiJobProbe,
            NetworkProbe,
        )

        if self.env.tracer is None:
            self.enable_tracing()
        kwargs = {} if capacity is None else {"capacity": capacity}
        sampler = MetricSampler(self.env, interval, **kwargs)
        fabric = FabricLedger(self.network, sampler)
        sampler.add_probe(NetworkProbe(fabric))
        sampler.add_probe(MultiJobProbe(fabric, [j.name for j in self.jobs]))
        self.env.metric_sampler = sampler
        self._sampler = sampler
        return sampler

    # -- execution ----------------------------------------------------------
    def run(self) -> MultiJobResult:
        """Drive every job to completion and collect the result."""
        drivers = [
            self.env.process(self._drive(job, idx))
            for idx, job in enumerate(self.jobs)
        ]
        self.env.run(until=self.env.all_of(drivers))
        for d in drivers:
            if not d.ok:  # pragma: no cover - defensive
                raise d.value
        # Attribution is what the drain counted under each job's tag; the
        # counters land on each job's own recorder (multijob.* is excluded
        # from replay streams, so a solo job's stream stays bit-identical
        # to a direct run's).
        net = self.network
        for name, run in self._runs.items():
            run.job_bytes = net.job_bytes(name)
            run.contended_bytes = net.contended_bytes(name)
            for jobs, seconds in net.job_overlap.items():
                if name in jobs:
                    run.active_seconds += seconds
                    if len(jobs) > 1:
                        run.contended_seconds += seconds
            rec = run.result.recorder
            rec.incr("multijob.job_bytes", run.job_bytes)
            rec.incr("multijob.contended_bytes", run.contended_bytes)
            rec.incr("multijob.solo_bytes", run.solo_bytes)
        return MultiJobResult(
            jobs={j.name: self._runs[j.name] for j in self.jobs},
            wall_time=self.env.now,
            admission=self.admission,
            placement=self.placement,
            n_hosts=self.pool.n_hosts,
            slots_per_host=self.pool.slots_per_host,
            gpus_per_host=self.pool.gpus_per_host,
            network_stats=dict(self.network.stats),
            job_overlap=dict(net.job_overlap),
            tracer=self._tracer,
            sampler=self._sampler,
        )

    def _drive(self, job: JobSpec, idx: int):
        """Per-job driver process: admit → place → train → release."""
        submitted = self.env.now
        yield from self.scheduler.wait_admission(job, idx)
        placement = replace(
            self.pool.allocate(job.name, job.n_nodes, self.placement),
            default_prio=job.default_prio,
        )
        admitted = self.env.now
        trainer = job.build_trainer(self.env, self.network, placement)
        if self._tracer is not None:
            trainer.ps.tracer = self._tracer
            trainer.engine.tracer = self._tracer
        if self.placement == "shared":
            trainer.ctx.compute_slots = {
                w: self.pool.compute_slot(placement.hosts[trainer.spec.worker_node(w)])
                for w in range(trainer.spec.n_workers)
            }
        done = trainer.start()
        yield done
        result = trainer.finish()
        self.pool.release(placement)
        self.scheduler.job_done(idx)
        self._runs[job.name] = JobRun(
            name=job.name,
            result=result,
            placement=placement,
            submitted=submitted,
            admitted=admitted,
            finished=self.env.now,
        )


__all__ = [
    "ADMISSION_MODES",
    "JobRun",
    "JobScheduler",
    "MultiJobResult",
    "MultiJobRunner",
]
