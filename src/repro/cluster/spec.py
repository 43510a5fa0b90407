"""Cluster and training-run configuration."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

from repro.bounds import COUNT, FRACTION, INDEX, NON_NEGATIVE, POSITIVE, Bound, check_bounds
from repro.faults.schedule import FaultSchedule
from repro.hardware.gpu import GPUSpec, get_gpu
from repro.hardware.jitter import JitterModel, NoJitter
from repro.netsim.links import LinkSpec


#: Every worker's GPU: the paper's testbed (§5.1.1) is Tesla T4s.
GPU: GPUSpec = get_gpu("tesla-t4")


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
    jitter: JitterModel = field(default_factory=NoJitter)
    colocated_ps: bool = False
    fixed_overhead: float = 4e-3  # per-iteration host-side cost (seconds)
    #: PS-side aggregation throughput in bytes/second (deserialise + add,
    #: memory-bound, one aggregator thread per PS — so concurrent pushes to
    #: one PS serialise). ``None`` disables the model (infinitely fast PS).
    ps_agg_bandwidth: float | None = 6e9
    #: Number of parameter servers (§6.1 synchronization groups).
    n_ps: int = 1
    #: Scheduled faults replayed against the run, the membership timeline
    #: (crash, restart, join, leave) among them; None = fault-free and
    #: static membership.
    faults: Optional[FaultSchedule] = None

    BOUNDS = {"n_workers": COUNT, "fixed_overhead": NON_NEGATIVE, "n_ps": COUNT,
              "ps_agg_bandwidth": Bound(0, ends="()", optional=True)}  # fmt: skip

    def __post_init__(self) -> None:
        check_bounds(self)
        if self.colocated_ps and self.n_ps != 1:
            raise ValueError("colocated_ps supports a single PS only")
        if self.faults is not None:
            self._check_timeline(self.faults)

    def _check_timeline(self, faults: FaultSchedule) -> None:
        """The schedule rules that need the cluster's shape: every event
        names a worker or node of this cluster, and nobody waits to enter an
        empty cluster (no epoch before the last join or restart has no one
        in it)."""
        workers = range(self.n_workers)
        for ev in faults.events:
            worker = getattr(ev, "worker", None)
            if worker is not None and worker >= self.n_workers:
                raise ValueError(f"fault schedule {ev.kind} names unknown worker {worker}")
            for node in getattr(ev, "nodes", None) or ():
                if node >= self.n_nodes:
                    raise ValueError(f"fault schedule {ev.kind} names unknown node {node}")
        last_entry = max(
            (at for w in workers for at, entering, _ev in faults.transitions(w) if entering),
            default=0,
        )
        for epoch in range(last_entry):
            if not any(faults.present(w, epoch) for w in workers):
                raise ValueError(
                    f"no worker is in the cluster during epoch {epoch}, "
                    "but a later join or restart waits on it"
                )

    @property
    def n_nodes(self) -> int:
        """Hosts in the topology (workers + standalone PSes if present)."""
        return self.n_workers if self.colocated_ps else self.n_workers + self.n_ps

    @property
    def ps_node(self) -> int:
        """Topology node id hosting the (first) PS."""
        return 0 if self.colocated_ps else self.n_workers

    @cached_property
    def ps_nodes(self) -> tuple[int, ...]:
        """Topology node ids of all parameter servers (computed once: the
        spec is frozen)."""
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
    ``hosts[i]``. Every flow the job starts carries ``job`` (its bytes
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

    BOUNDS = {
        "n_epochs": COUNT, "iterations_per_epoch": Bound(1, integer=True, optional=True),
        "lr": POSITIVE, "momentum": Bound(0, 1), "weight_decay": NON_NEGATIVE,
        "lr_step_epochs": COUNT, "lr_gamma": FRACTION,
        "early_stop_patience": Bound(1, integer=True, optional=True),
        "early_stop_delta": NON_NEGATIVE, "seed": INDEX,
    }  # fmt: skip
    __post_init__ = check_bounds


__all__ = ["ClusterSpec", "Placement", "TrainingPlan"]
