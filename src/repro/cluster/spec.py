"""Cluster and training-run configuration."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from repro.faults.schedule import FaultSchedule
from repro.hardware.gpu import GPUSpec, get_gpu
from repro.hardware.jitter import JitterModel, NoJitter
from repro.netsim.links import LinkSpec


@dataclass(frozen=True)
class WorkerJoin:
    """Worker ``worker`` joins the cluster when epoch ``epoch`` begins.

    The worker sits out epochs ``0..epoch-1`` (it is not counted alive) and
    enters at the epoch boundary with a fresh copy of the global model.
    """

    worker: int
    epoch: int

    def __post_init__(self) -> None:
        if self.worker < 0:
            raise ValueError(f"worker must be >= 0, got {self.worker}")
        if self.epoch < 1:
            raise ValueError(
                f"membership changes happen at epoch boundaries (epoch >= 1), got {self.epoch}"
            )


@dataclass(frozen=True)
class WorkerLeave:
    """Worker ``worker`` leaves the cluster when epoch ``epoch`` begins.

    The departure is graceful: the worker finishes epoch ``epoch-1``
    (including any in-flight ICS push) before leaving.
    """

    worker: int
    epoch: int

    def __post_init__(self) -> None:
        if self.worker < 0:
            raise ValueError(f"worker must be >= 0, got {self.worker}")
        if self.epoch < 1:
            raise ValueError(
                f"membership changes happen at epoch boundaries (epoch >= 1), got {self.epoch}"
            )


MembershipEvent = Union[WorkerJoin, WorkerLeave]


@dataclass(frozen=True)
class MembershipSchedule:
    """Elastic worker join/leave events, all at epoch boundaries.

    At most one join and one leave per worker; a worker that both joins
    and leaves must leave strictly after joining.
    """

    events: tuple[MembershipEvent, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))
        joins: dict[int, int] = {}
        leaves: dict[int, int] = {}
        for ev in self.events:
            if isinstance(ev, WorkerJoin):
                if ev.worker in joins:
                    raise ValueError(f"worker {ev.worker} has multiple join events")
                joins[ev.worker] = ev.epoch
            elif isinstance(ev, WorkerLeave):
                if ev.worker in leaves:
                    raise ValueError(f"worker {ev.worker} has multiple leave events")
                leaves[ev.worker] = ev.epoch
            else:
                raise TypeError(f"unknown membership event {ev!r}")
        for worker, leave_epoch in leaves.items():
            join_epoch = joins.get(worker)
            if join_epoch is not None and leave_epoch <= join_epoch:
                raise ValueError(
                    f"worker {worker} leaves at epoch {leave_epoch} but only "
                    f"joins at epoch {join_epoch}"
                )

    def __len__(self) -> int:
        return len(self.events)

    @property
    def join_epochs(self) -> dict[int, int]:
        return {ev.worker: ev.epoch for ev in self.events if isinstance(ev, WorkerJoin)}

    @property
    def leave_epochs(self) -> dict[int, int]:
        return {ev.worker: ev.epoch for ev in self.events if isinstance(ev, WorkerLeave)}

    @property
    def initially_absent(self) -> frozenset[int]:
        """Workers that only come into existence at their join epoch."""
        return frozenset(self.join_epochs)


@dataclass(frozen=True)
class ClusterSpec:
    """Physical cluster description (paper §5.1.1 defaults).

    ``colocated_ps=False`` gives the 9-node layout: N workers (nodes
    0..N−1) plus a standalone PS (node N). ``colocated_ps=True`` puts the
    PS on worker 0's node (OSP-C, §4.4/§5.4): their traffic is loopback and
    worker 0 pays the PS-side PGP compute. ``n_ps > 1`` adds further
    standalone PS nodes for §6.1 sharded synchronization (BytePS-style).
    """

    n_workers: int = 8
    link: LinkSpec = field(default_factory=LinkSpec)
    gpu: GPUSpec = field(default_factory=lambda: get_gpu("tesla-t4"))
    jitter: JitterModel = field(default_factory=NoJitter)
    colocated_ps: bool = False
    fixed_overhead: float = 4e-3  # per-iteration host-side cost (seconds)
    #: PS-side aggregation throughput in bytes/second (deserialise + add,
    #: memory-bound, one aggregator thread per PS — so concurrent pushes to
    #: one PS serialise). ``None`` disables the model (infinitely fast PS).
    ps_agg_bandwidth: float | None = 6e9
    #: Number of parameter servers (§6.1 synchronization groups).
    n_ps: int = 1
    #: Scheduled faults replayed against the run (None = fault-free).
    faults: Optional[FaultSchedule] = None
    #: Elastic worker join/leave schedule (None = static membership).
    membership: Optional[MembershipSchedule] = None

    def __post_init__(self) -> None:
        if self.n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {self.n_workers}")
        if self.faults is not None:
            for crash in self.faults.crash_events:
                if crash.worker >= self.n_workers:
                    raise ValueError(
                        f"fault schedule crashes unknown worker {crash.worker}"
                    )
        if self.membership is not None:
            crash_workers = (
                {c.worker for c in self.faults.crash_events} if self.faults else set()
            )
            for ev in self.membership.events:
                if ev.worker >= self.n_workers:
                    raise ValueError(
                        f"membership schedule references unknown worker {ev.worker}"
                    )
                if ev.worker in crash_workers:
                    raise ValueError(
                        f"worker {ev.worker} appears in both the crash and "
                        "membership schedules"
                    )
            if len(self.membership.initially_absent) >= self.n_workers:
                raise ValueError("at least one worker must be present at epoch 0")
        if self.ps_agg_bandwidth is not None and not (self.ps_agg_bandwidth > 0):
            raise ValueError(
                f"ps_agg_bandwidth must be positive or None, got {self.ps_agg_bandwidth}"
            )
        if self.n_ps < 1:
            raise ValueError(f"n_ps must be >= 1, got {self.n_ps}")
        if self.colocated_ps and self.n_ps != 1:
            raise ValueError("colocated_ps supports a single PS only")

    @property
    def n_nodes(self) -> int:
        """Hosts in the topology (workers + standalone PSes if present)."""
        return self.n_workers if self.colocated_ps else self.n_workers + self.n_ps

    @property
    def ps_node(self) -> int:
        """Topology node id hosting the (first) PS."""
        return 0 if self.colocated_ps else self.n_workers

    @property
    def ps_nodes(self) -> tuple[int, ...]:
        """Topology node ids of all parameter servers."""
        if self.colocated_ps:
            return (0,)
        return tuple(range(self.n_workers, self.n_workers + self.n_ps))

    def worker_node(self, worker: int) -> int:
        """Topology node id of a worker (currently the identity map)."""
        if not (0 <= worker < self.n_workers):
            raise ValueError(f"worker {worker} out of range")
        return worker


@dataclass(frozen=True)
class Placement:
    """Where a job's nodes sit on the fabric and how its flows are tagged.

    Node ``i`` of the job's :class:`ClusterSpec` (see :meth:`~ClusterSpec.
    worker_node` and :attr:`~ClusterSpec.ps_nodes`) is topology host
    ``hosts[i]``. Every flow the job starts carries ``job`` (drained bytes
    count to ``netsim.job_bytes.{job}``), and ``default_prio``, when set,
    replaces the class of the job's NORMAL flows. A trainer that owns its
    network runs on the identity placement ``Placement(None,
    range(n_nodes))``, so a solo run is the one-job case of co-tenancy.
    """

    job: Optional[str]
    hosts: tuple[int, ...]
    default_prio: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "hosts", tuple(self.hosts))


@dataclass(frozen=True)
class TrainingPlan:
    """How long and how to train.

    ``iterations_per_epoch`` is per-worker. In numeric mode it defaults to
    the shard loader's batch count; in timing mode it must be given.
    """

    n_epochs: int = 10
    iterations_per_epoch: Optional[int] = None
    lr: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 0.0
    lr_step_epochs: int = 10  # paper: halve every 10 epochs
    lr_gamma: float = 0.5
    early_stop_patience: Optional[int] = None  # epochs without improvement
    early_stop_delta: float = 1e-3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_epochs < 1:
            raise ValueError(f"n_epochs must be >= 1, got {self.n_epochs}")
        if self.iterations_per_epoch is not None and self.iterations_per_epoch < 1:
            raise ValueError("iterations_per_epoch must be >= 1 when given")
        if not (self.lr > 0):
            raise ValueError(f"lr must be positive, got {self.lr}")
        if self.early_stop_patience is not None and self.early_stop_patience < 1:
            raise ValueError("early_stop_patience must be >= 1 when given")


__all__ = [
    "ClusterSpec",
    "MembershipSchedule",
    "Placement",
    "TrainingPlan",
    "WorkerJoin",
    "WorkerLeave",
]
