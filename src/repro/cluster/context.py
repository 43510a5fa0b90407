"""TrainerContext: everything a sync model's worker process can touch."""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.cluster.engines import Engine

from collections import deque
from typing import Optional

import numpy as np

from repro.cluster.ps import ParameterServer
from repro.cluster.spec import ClusterSpec, Placement, TrainingPlan
from repro.faults.schedule import FaultSchedule, MembershipEvent, WorkerJoin, WorkerLeave
from repro.metrics.recorder import EpochRecord, IterationRecord, Recorder
from repro.netsim.network import Network
from repro.netsim.prio import PRIO_NORMAL
from repro.obs.tracer import NULL_TRACER
from repro.simcore.environment import Environment
from repro.simcore.events import Event
from repro.simcore.resources import QuorumBarrier, Resource


class TrainerContext:
    """Shared state + primitives for worker processes.

    Created by :class:`~repro.cluster.trainer.DistributedTrainer`; sync
    models receive it in ``setup`` and in every worker process. Whatever
    watches a run (sync models, :mod:`repro.check`) appends to its
    ``*_hooks`` lists; each list is called from exactly one place.
    """

    def __init__(
        self,
        env: Environment,
        network: Network,
        spec: ClusterSpec,
        plan: TrainingPlan,
        engine: Engine,
        ps: ParameterServer,
        recorder: Recorder,
        iterations_per_epoch: int,
        placement: Optional[Placement] = None,
    ) -> None:
        if placement is None:
            placement = Placement(None, range(spec.n_nodes))
        if len(placement.hosts) != spec.n_nodes:
            raise ValueError(
                f"placement has {len(placement.hosts)} hosts for {spec.n_nodes} nodes"
            )
        self.env = env
        self.network = network
        #: where the spec's nodes sit on ``network``'s topology (the
        #: identity placement when the trainer owns its network)
        self.placement = placement
        self.spec = spec
        self.plan = plan
        self.engine = engine
        self.ps = ps
        self.recorder = recorder
        self.iterations_per_epoch = iterations_per_epoch
        self._stop_after_epoch: Optional[int] = None
        #: the membership timeline (crash, restart, join, leave) is the
        #: spec's; with ``_alive`` it is the whole membership state
        self._timeline = spec.faults if spec.faults is not None else FaultSchedule()
        self._alive = {w for w in range(spec.n_workers) if self._timeline.present(w, 0)}
        #: first epoch this run executes (> 0 when resumed from a checkpoint)
        self.start_epoch = 0
        #: the run's CheckpointManager, set by the trainer when enabled
        self.checkpoints = None
        #: called with the new alive-count after every membership change
        #: (crash, restart, elastic join/leave); OSP re-derives U_max here
        self.membership_hooks: list = []
        self._epoch_arrivals: dict[int, int] = {}
        self._epoch_losses: dict[int, list[float]] = {}
        self._completed: set[int] = set()
        self._completion_events: dict[int, Event] = {}
        self._quorum_barriers: list[QuorumBarrier] = []
        #: the run's FaultInjector, set by the trainer when a schedule exists
        self.faults = None
        self._best_metric = -np.inf
        self._epochs_since_improvement = 0
        self._lr_scheduler = None  # set by trainer
        #: Per-PS aggregator FIFO of arrived pushes ``(nbytes, record, done)``:
        #: the head is in service, the rest wait (see :meth:`transfer_to_ps`).
        self._agg_queues: Optional[list[deque]] = (
            [deque() for _ in spec.ps_nodes]
            if spec.ps_agg_bandwidth is not None
            else None
        )
        #: hooks the active sync model can register
        self.epoch_end_hooks: list = []
        #: called with ``(iteration, n_deposits)`` once per closed synchronous
        #: round, after the model's own ``on_round_close``
        self.round_close_hooks: list = []
        #: called with ``(worker, iteration)`` when ``before_compute`` has
        #: returned, i.e. the instant a worker is cleared to start computing
        self.compute_start_hooks: list = []
        #: Co-tenancy compute-slot contention: worker -> shared-host
        #: :class:`Resource` (set by the multi-job runner for shared-host
        #: placements). ``None`` — the single-tenant default — keeps
        #: :meth:`compute` on the exact legacy event sequence.
        self.compute_slots: Optional[dict[int, Resource]] = None

    # -- observability --------------------------------------------------------
    @property
    def trace(self):
        """The run's tracer, or the shared no-op tracer when disabled —
        call sites never need a None check."""
        return self.env.tracer or NULL_TRACER

    # -- lifecycle ------------------------------------------------------------
    @property
    def stopped(self) -> bool:
        """True once early stopping has triggered."""
        return self._stop_after_epoch is not None

    def skip_epoch(self, epoch: int) -> bool:
        """Should a worker skip (not start) this epoch?

        Early stopping is epoch-indexed rather than an instant flag: when it
        triggers during epoch ``e``'s evaluation, epoch ``e+1`` is declared
        the last. Workers that already started ``e+1`` finish it; workers
        that have not will still run it — so barrier-based models (BSP,
        OSP's RS) never end up with some workers inside a barrier that the
        rest have abandoned.
        """
        return self._stop_after_epoch is not None and epoch > self._stop_after_epoch

    # -- membership -------------------------------------------------------------
    @property
    def alive_workers(self) -> frozenset[int]:
        """Workers still participating."""
        return frozenset(self._alive)

    def next_entry(self, worker: int, epoch: int) -> Optional[int]:
        """The first epoch ``>= epoch`` at which the timeline brings the
        absent ``worker`` in (its join, or the restart after its crash), or
        None if it never comes (back)."""
        return next(
            (at for at, entering, _ev in self._timeline.transitions(worker)
             if entering and at >= epoch),
            None,
        )  # fmt: skip

    def admit(self, worker: int, epoch: int) -> bool:
        """Bring the absent ``worker`` in at ``epoch``, its timeline entry.

        An elastic joiner gets a fresh copy of the global model. A restarted
        worker is cold-synced from the PS too, unless its crash says
        ``recover="checkpoint"`` and a snapshot is available, in which case
        it resumes from the checkpointed replica.

        Returns False — and leaves the worker out — if early stopping
        already ended the run; rejoining closed epochs would hang.
        """
        if self.stopped:
            return False
        event = self._timeline.last_step(worker, epoch)[2]
        joining = isinstance(event, WorkerJoin)
        group, name = (
            ("elastic", "elastic.worker_join") if joining
            else ("faults", "faults.worker_restart")
        )  # fmt: skip
        self._alive.add(worker)
        self.recorder.incr(name)
        self.trace.instant(name, actor=group, track=group, worker=worker)
        self._notify_membership()
        recovered = False
        if not joining and event.recover == "checkpoint" and self.checkpoints is not None:
            recovered = self.checkpoints.recover_worker(worker)
            if recovered:
                self.recorder.incr("ckpt.worker_recover")
                self.trace.instant(
                    "ckpt.worker_recover", actor="ckpt", track="ckpt", worker=worker
                )
        if not recovered:
            self.engine.sync_replica(worker, self.ps)
        return True

    def depart(self, worker: int, epoch: int) -> Optional[MembershipEvent]:
        """Take ``worker`` out when ``epoch`` begins if its timeline's last
        step by then is an exit — a crash or a graceful leave — and return
        that event; None leaves it in.

        Training goes on with the survivors — the PS architecture's
        resilience the paper motivates in §1, against Ring-AllReduce's
        fragility: removing the worker completes any epoch it was the last
        missing arrival for and resizes every quorum barrier, so a round
        shrinks with the cluster (BSP exactly as OSP's RS).
        """
        step = self._timeline.last_step(worker, epoch)
        if step is None or step[1]:
            return None
        event = step[2]
        group, name = (
            ("elastic", "elastic.worker_leave") if isinstance(event, WorkerLeave)
            else ("faults", "faults.worker_crash")
        )  # fmt: skip
        self._alive.discard(worker)
        self.recorder.incr(name)
        self.trace.instant(name, actor=group, track=group, worker=worker)
        if self._alive:
            self._notify_membership()
            for open_epoch in sorted(self._epoch_arrivals):
                self._maybe_complete_epoch(open_epoch)
        return event

    def _notify_membership(self) -> None:
        """Resize quorum barriers and tell listeners the cluster changed size."""
        n = len(self._alive)
        for barrier in self._quorum_barriers:
            barrier.set_parties(max(1, n))
        for hook in self.membership_hooks:
            hook(n)

    # -- checkpointing --------------------------------------------------------
    def checkpoint_pause(self, worker: int, epoch: int):
        """Generator: epoch-boundary checkpoint barrier (no-op when no
        manager is attached or the epoch is not a checkpoint boundary)."""
        manager = self.checkpoints
        if manager is not None:
            yield from manager.pause(self, worker, epoch)

    def checkpoint_gate(self, epoch: int):
        """Pending checkpoint-release event for ``epoch``, or None.

        Workers admitted at a boundary yield this so they cannot race
        ahead of an in-progress snapshot drain.
        """
        manager = self.checkpoints
        if manager is None:
            return None
        return manager.gate(epoch)

    def checkpoint_meta(self) -> dict:
        """The metadata entries :meth:`load_checkpoint_meta` reads back
        (``next_epoch`` aside, which the snapshot decides), in file order."""
        return {
            "alive": sorted(self._alive),
            "early_stop": {
                "best_metric": float(self._best_metric),
                "epochs_since_improvement": int(self._epochs_since_improvement),
                "stop_after_epoch": self._stop_after_epoch,
            },
        }

    def load_checkpoint_meta(self, meta: dict) -> None:
        """Restore context state from a checkpoint's metadata blob.

        Membership needs only ``alive``: the timeline is the spec's, and its
        transitions at epochs ``>= next_epoch`` are the pending ones — an
        entry whose worker is already alive has fired before the capture.
        """
        self.start_epoch = int(meta["next_epoch"])
        self._alive = set(int(w) for w in meta["alive"])
        # Epochs before the resume point are history; completion events for
        # them must fire immediately (restarting workers may wait on them).
        self._completed = set(range(self.start_epoch))
        early = meta.get("early_stop", {})
        self._best_metric = float(early.get("best_metric", -np.inf))
        self._epochs_since_improvement = int(early.get("epochs_since_improvement", 0))
        stop_after = early.get("stop_after_epoch")
        self._stop_after_epoch = None if stop_after is None else int(stop_after)

    def epoch_completion(self, epoch: int) -> Event:
        """Event that succeeds once ``epoch`` has been completed by all
        alive workers (immediately if it already has, or if the run ended
        early — a restarting worker must never wait on an epoch that will
        no longer happen)."""
        ev = self._completion_events.get(epoch)
        if ev is None:
            ev = Event(self.env)
            self._completion_events[epoch] = ev
            if epoch in self._completed or self.stopped:
                ev.succeed(epoch)
        return ev

    @property
    def current_lr(self) -> float:
        """The effective learning rate right now (PS optimizer's, if any)."""
        if self.ps.optimizer is not None:
            return self.ps.optimizer.lr
        return self.plan.lr

    # -- communication ----------------------------------------------------------
    def transfer_to_ps(
        self,
        worker: int,
        nbytes: float,
        tag=None,
        ps_index: int = 0,
        prio: int = PRIO_NORMAL,
    ) -> Event:
        """Worker → PS transfer in class ``prio``; returns an event that
        fires once the bytes have arrived AND that PS's (serialised,
        memory-bound) aggregator has ingested them — see
        ``ClusterSpec.ps_agg_bandwidth``.

        The aggregator is a FIFO of callbacks: an arriving push starts its
        ``nbytes / ps_agg_bandwidth`` service timer if the aggregator is idle,
        else queues; a finishing timer arms the next queued push's timer.
        ``tests/cluster/reference.py`` holds the ordering oracle.
        """
        net_done = self._send(
            self.spec.worker_node(worker), self.spec.ps_nodes[ps_index], nbytes, tag, prio
        )
        if self._agg_queues is None or nbytes <= 0:
            return net_done
        done = Event(self.env)
        queue = self._agg_queues[ps_index]
        net_done.callbacks.append(
            lambda ev: self._agg_arrive(queue, (nbytes, ev.value, done))
        )
        return done

    def _agg_arrive(self, queue: deque, push: tuple) -> None:
        queue.append(push)
        if len(queue) == 1:  # the aggregator was idle
            self._agg_serve(queue)

    def _agg_serve(self, queue: deque) -> None:
        timer = self.env.timeout(queue[0][0] / self.spec.ps_agg_bandwidth)
        timer.callbacks.append(lambda _ev: self._agg_served(queue))

    def _agg_served(self, queue: deque) -> None:
        # Succeed ``done`` before arming the next timer, so entries that tie
        # keep that insertion order.
        _nbytes, record, done = queue.popleft()
        done.succeed(record)
        if queue:
            self._agg_serve(queue)

    def transfer_from_ps(
        self,
        worker: int,
        nbytes: float,
        tag=None,
        ps_index: int = 0,
        prio: int = PRIO_NORMAL,
    ) -> Event:
        """PS → worker transfer in class ``prio``; returns the completion event."""
        return self._send(
            self.spec.ps_nodes[ps_index], self.spec.worker_node(worker), nbytes, tag, prio
        )

    def _send(self, src: int, dst: int, nbytes: float, tag, prio: int) -> Event:
        """Start a flow between two of the spec's nodes: placed on their
        hosts, tagged with the job, NORMAL replaced by its default class."""
        placement = self.placement
        if prio == PRIO_NORMAL and placement.default_prio is not None:
            prio = placement.default_prio
        hosts = placement.hosts
        return self.network.transfer(
            hosts[src], hosts[dst], nbytes, tag=tag, prio=prio, job=placement.job
        )

    def quorum_barrier(self, timeout=None, on_degraded=None) -> QuorumBarrier:
        """The one barrier constructor: the party count tracks the
        alive-worker set (crash, restart, elastic join and leave resize
        every barrier created here), and an optional virtual-time
        ``timeout`` releases a degraded quorum instead of deadlocking."""
        barrier = QuorumBarrier(
            self.env,
            max(1, len(self._alive)),
            timeout=timeout,
            on_degraded=on_degraded,
        )
        self._quorum_barriers.append(barrier)
        return barrier

    @property
    def quorum_barriers(self) -> tuple[QuorumBarrier, ...]:
        """Every barrier :meth:`quorum_barrier` has handed out."""
        return tuple(self._quorum_barriers)

    # -- compute -----------------------------------------------------------------
    def compute(self, worker: int, epoch: int, batch: int, extra_time: float = 0.0):
        """Generator: advance virtual time by this iteration's (jittered)
        compute time, then run the numeric math. Returns
        ``(grads, loss, samples, t_compute, t_start)``.

        Under a shared-host co-tenant placement (``compute_slots`` set) the
        worker first acquires its host's compute-slot Resource, so jobs
        oversubscribing a GPU serialise their compute phases; the queue
        wait is folded into the returned compute time so iteration
        accounting stays conservative. Single-tenant runs (``compute_slots``
        is None) take the legacy event sequence untouched.
        """
        iteration = epoch * self.iterations_per_epoch + batch
        base = self.engine.base_compute_time(self.spec) + extra_time
        if self.faults is not None:
            base *= self.faults.compute_factor(worker, self.env.now)
        t_c = self.spec.jitter.sample(base, worker, iteration)
        t_start = self.env.now
        slot = None if self.compute_slots is None else self.compute_slots.get(worker)
        trace = self.env.tracer
        if trace:
            span = trace.begin("compute", f"worker {worker}", worker=worker, iteration=iteration)
        if slot is not None:
            yield slot.request()
            try:
                yield self.env.timeout(t_c)
                grads, loss, samples = self.engine.compute(worker, epoch, batch)
            finally:
                slot.release()
            # Fold the slot queue wait into the reported compute time so
            # start + compute + sync still tiles the iteration.
            t_c = self.env.now - t_start
        else:
            yield self.env.timeout(t_c)
            grads, loss, samples = self.engine.compute(worker, epoch, batch)
        if trace:
            trace.end(span, loss=loss)
        self._epoch_losses.setdefault(epoch, []).append(loss)
        return grads, loss, samples, t_c, t_start

    # -- recording ------------------------------------------------------------------
    def record_iteration(
        self,
        worker: int,
        iteration: int,
        t_start: float,
        t_compute: float,
        t_sync: float,
        loss: float,
        samples: int,
    ) -> None:
        self.recorder.record_iteration(
            IterationRecord(
                worker=worker,
                iteration=iteration,
                start_time=t_start,
                compute_time=t_compute,
                sync_time=t_sync,
                loss=loss,
                samples=samples,
            )
        )

    def epoch_done(self, worker: int, epoch: int) -> None:
        """Signal that ``worker`` finished ``epoch``; the last (alive)
        arrival triggers evaluation, LR scheduling, sync-model hooks and
        the early-stopping check."""
        self._epoch_arrivals[epoch] = self._epoch_arrivals.get(epoch, 0) + 1
        self._maybe_complete_epoch(epoch)

    def _maybe_complete_epoch(self, epoch: int) -> None:
        if epoch in self._completed or not self._alive:
            return
        count = self._epoch_arrivals.get(epoch, 0)
        if count < len(self._alive):
            return
        # mark completed so the re-checks in depart cannot double-fire
        self._completed.add(epoch)

        losses = self._epoch_losses.get(epoch, [0.0])
        train_loss = float(np.mean(losses))
        iterations_done = self.recorder.total_iterations
        metric = self.engine.evaluate(self.ps, iterations_done)
        self.recorder.record_epoch(
            EpochRecord(
                epoch=epoch,
                time=self.env.now,
                train_loss=train_loss,
                metric=metric,
                iterations_done=iterations_done,
            )
        )
        if self._lr_scheduler is not None:
            self._lr_scheduler.epoch_end(epoch)
        for hook in self.epoch_end_hooks:
            hook(epoch, train_loss, metric)
        self._check_early_stop(metric, epoch)
        ev = self._completion_events.get(epoch)
        if ev is not None and not ev.triggered:
            ev.succeed(epoch)

    def _check_early_stop(self, metric: float, epoch: int) -> None:
        patience = self.plan.early_stop_patience
        if patience is None:
            return
        if metric > self._best_metric + self.plan.early_stop_delta:
            self._best_metric = metric
            self._epochs_since_improvement = 0
        else:
            self._epochs_since_improvement += 1
            if (
                self._epochs_since_improvement >= patience
                and self._stop_after_epoch is None
            ):
                self._stop_after_epoch = epoch + 1
                # Epochs beyond the stop point will never complete; release
                # anyone (a restarting worker) waiting on them.
                for ev in self._completion_events.values():
                    if not ev.triggered:
                        ev.succeed(None)


__all__ = ["TrainerContext"]
