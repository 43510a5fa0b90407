"""DistributedTrainer: wires engine + PS + network + sync model together
and runs the simulation to completion."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from repro.cluster.context import TrainerContext
from repro.cluster.engines import Engine
from repro.cluster.spec import ClusterSpec, Placement, TrainingPlan
from repro.metrics.recorder import Recorder
from repro.netsim.network import Network
from repro.netsim.topology import StarTopology
from repro.simcore.environment import Environment


@dataclass
class TrainingResult:
    """Everything a benchmark needs after a run.

    ``wall_time`` is the simulation clock when the last worker process
    finished — it *includes* background work still draining after the last
    recorded iteration (OSP's final ICS). ``iteration_end_time`` is the old
    metric (last iteration's compute+sync end) and is what throughput is
    computed against, so throughput stays comparable across sync models.
    """

    sync_name: str
    recorder: Recorder
    wall_time: float  # virtual seconds of the whole run, drain included
    context: TrainerContext
    iteration_end_time: float = 0.0  # when the last *iteration* finished
    #: populated when the trainer ran with :meth:`DistributedTrainer.enable_tracing`
    tracer: object = None
    #: populated when the trainer ran with :meth:`DistributedTrainer.enable_sampling`
    sampler: object = None

    @property
    def throughput(self) -> float:
        return self.recorder.throughput()

    @property
    def best_metric(self) -> float:
        return self.recorder.best_metric()

    @property
    def mean_bst(self) -> float:
        return self.recorder.mean_bst()

    @property
    def mean_bct(self) -> float:
        return self.recorder.mean_bct()


class DistributedTrainer:
    """Run one (cluster, workload, sync model) training simulation.

    Parameters
    ----------
    spec, plan, engine:
        Cluster description, run plan, and the numeric/timing engine.
    sync_model:
        An instance from :mod:`repro.sync` or :mod:`repro.core.osp`.
    checkpoint_every, checkpoint_dir, checkpoint_policy:
        Enable periodic checkpointing: every ``checkpoint_every`` epochs the
        workers pause at the epoch boundary, in-flight ICS traffic is drained
        (or discarded, per ``checkpoint_policy``), and the full training
        state is written atomically under ``checkpoint_dir``.
    resume_from:
        A checkpoint path (or loaded :class:`repro.ckpt.Checkpoint`) to
        resume from. The virtual clock, recorder history, schedules and all
        parameter/momentum/sync state continue from the snapshot, so a
        resumed run is bit-identical to one that never stopped.
    env, network, placement:
        Co-tenancy: hand the trainer a *shared* environment and
        :class:`~repro.netsim.network.Network` plus the
        :class:`~repro.cluster.spec.Placement` of this job on it (which
        hosts its nodes sit on, the job name every flow and worker process
        carries, the class its NORMAL flows are demoted to). When omitted
        the trainer owns the environment and the network and runs on the
        identity placement; only then does it mirror the ``netsim.*``
        counters into its recorder. A shared environment is incompatible
        with checkpointing and resume (the snapshot would capture the
        whole fabric's clock).
    """

    def __init__(
        self,
        spec: ClusterSpec,
        plan: TrainingPlan,
        engine: Engine,
        sync_model,
        topology=None,
        checkpoint_every: Optional[int] = None,
        checkpoint_dir: Optional[Union[str, Path]] = None,
        checkpoint_policy: str = "drain",
        resume_from=None,
        env: Optional[Environment] = None,
        network: Optional[Network] = None,
        placement: Optional[Placement] = None,
    ) -> None:
        """``topology`` (optional) overrides the default single-rack star —
        e.g. ``StarTopology(spec.n_nodes, spec.link, n_racks=2)`` for
        cross-rack studies. It must route between the spec's node ids
        (workers 0..N−1 and the PS node(s))."""
        self.spec = spec
        self.plan = plan
        self.engine = engine
        self.sync_model = sync_model
        self._topology_override = topology
        if network is not None and topology is not None:
            raise ValueError("pass either a shared network= or a topology=, not both")
        if network is not None and env is None:
            env = network.env
        if network is not None and network.env is not env:
            raise ValueError("network= and env= belong to different environments")
        if env is not None and (resume_from is not None or checkpoint_every is not None):
            raise ValueError(
                "checkpointing/resume is not supported on a shared env= "
                "(the snapshot would capture the whole fabric)"
            )

        ipe = plan.iterations_per_epoch
        if ipe is None:
            from repro.cluster.numeric import NumericEngine

            if isinstance(engine, NumericEngine):
                ipe = engine.iterations_per_epoch
            else:
                raise ValueError(
                    "iterations_per_epoch must be set in the plan for timing mode"
                )
        self.iterations_per_epoch = ipe

        self._snapshot = None
        if resume_from is not None:
            from repro.ckpt import Checkpoint, load_checkpoint

            self._snapshot = (
                resume_from
                if isinstance(resume_from, Checkpoint)
                else load_checkpoint(resume_from)
            )

        # Resumed runs continue the virtual clock where the snapshot left it,
        # so traces, iteration timestamps, and fault windows stay on one
        # coherent timeline.
        self.env = env if env is not None else Environment(
            initial_time=self._snapshot.time if self._snapshot else 0.0
        )
        self.ps = engine.make_ps(plan)
        self.recorder = Recorder()
        if network is not None:
            self.network = network
        else:
            topo = (
                topology
                if topology is not None
                else StarTopology(spec.n_nodes, default_spec=spec.link)
            )
            self.network = Network(self.env, topo)
            # Mirror netsim.* scheduler counters into the run's counter table.
            self.network.recorder = self.recorder
        self.ctx = TrainerContext(
            env=self.env,
            network=self.network,
            spec=spec,
            plan=plan,
            engine=engine,
            ps=self.ps,
            recorder=self.recorder,
            iterations_per_epoch=ipe,
            placement=placement,
        )
        self.placement = self.ctx.placement
        if self.ps.optimizer is not None:
            from repro.optim.lr_scheduler import StepLR

            self.ctx._lr_scheduler = StepLR(
                self.ps.optimizer,
                step_epochs=plan.lr_step_epochs,
                gamma=plan.lr_gamma,
            )
        self.checkpoints = None
        if checkpoint_every is not None:
            from repro.ckpt import CheckpointManager

            if checkpoint_dir is None:
                raise ValueError("checkpoint_every requires checkpoint_dir")
            self.checkpoints = CheckpointManager(
                self,
                every=checkpoint_every,
                directory=checkpoint_dir,
                policy=checkpoint_policy,
            )
            self.ctx.checkpoints = self.checkpoints
        self.injector = None
        if spec.faults:
            from repro.faults.injector import FaultInjector

            self.injector = FaultInjector(self.ctx, spec.faults)
            self.ctx.faults = self.injector
            self.injector.start()
        if self._snapshot is not None:
            # After the LR scheduler, so the restored lr overrides it.
            from repro.ckpt import apply_checkpoint

            apply_checkpoint(self, self._snapshot)
            if self.checkpoints is not None:
                # The resumed snapshot is the manager's latest until it
                # writes its own — checkpoint-mode crash recovery must see
                # the same "latest" the uninterrupted run saw.
                self.checkpoints.latest = self._snapshot

    def enable_tracing(self):
        """Attach a :class:`repro.obs.Tracer` to every traced component.

        Must be called before :meth:`run`. The tracer is strictly passive
        (it never schedules simulation events), so a traced run's virtual
        timeline is identical to an untraced one. Returns the tracer.
        """
        from repro.obs.tracer import Tracer

        tracer = Tracer(self.env)
        self.env.tracer = tracer
        self.ps.tracer = tracer
        self.engine.tracer = tracer
        return tracer

    def enable_sampling(self, interval: Optional[float] = None, capacity: Optional[int] = None):
        """Attach a :class:`repro.obs.timeseries.MetricSampler`.

        Must be called before :meth:`run`. Implies :meth:`enable_tracing`
        (worker signals and gauge mirrors read tracer state). The sampler
        is driven from ``Environment.step`` and never schedules events, so
        a sampled run's :class:`TrainingResult` is bit-identical to an
        unsampled one. Returns the sampler.

        ``interval`` defaults to half the engine's base compute time
        (≥ 2 samples per iteration).
        """
        from repro.obs.timeseries import (
            MetricSampler,
            attach_standard_probes,
            default_interval,
        )

        if self.env.tracer is None:
            self.enable_tracing()
        if interval is None:
            interval = default_interval(self)
        kwargs = {} if capacity is None else {"capacity": capacity}
        sampler = MetricSampler(self.env, interval, **kwargs)
        attach_standard_probes(sampler, self)
        self.env.metric_sampler = sampler
        return sampler

    def start(self):
        """Launch the worker processes without driving the event loop.

        Returns the all-workers-finished event. Single-tenant callers use
        :meth:`run`; the multi-job runner calls ``start()`` on every
        co-tenant trainer over one shared environment, drives the loop
        itself, then collects each job via :meth:`finish`.
        """
        self.sync_model.setup(self.ctx)
        order = list(range(self.spec.n_workers))
        if self._snapshot is not None:
            try:
                self.sync_model.restore_state(
                    self.ctx,
                    self._snapshot.meta.get("sync_state", {}),
                    self._snapshot.sync_arrays(),
                )
            except KeyError as exc:  # e.g. written before the model kept this state
                from repro.ckpt import CheckpointError

                raise CheckpointError(
                    f"{self._snapshot.source}: sync-model state key {exc} is missing"
                ) from exc
            self.recorder.incr("ckpt.restore")
            self.ctx.trace.instant(
                "ckpt.restore", actor="ckpt", track="ckpt",
                next_epoch=self._snapshot.next_epoch,
            )
            # Process creation order fixes event-id tie-breaks in the kernel,
            # which in turn fixes floating-point summation order at the PS.
            # Recreate workers in the order they arrived at the snapshot
            # barrier so the resumed timeline matches the uninterrupted one.
            release = self._snapshot.meta.get("release_order") or []
            seen = [w for w in release if 0 <= w < self.spec.n_workers]
            order = seen + [w for w in order if w not in seen]
        with self.env.job_scope(self.placement.job):
            procs = [
                self.env.process(self.sync_model.worker_process(self.ctx, w))
                for w in order
            ]
        self._procs = procs
        done = self.env.all_of(procs)
        # Record the instant the last worker finished: under co-tenancy the
        # shared clock keeps running for other jobs, so wall_time must be
        # captured when *this* job's processes complete, not at collection.
        done.callbacks.append(lambda _ev: setattr(self, "_end_time", self.env.now))
        return done

    def finish(self) -> TrainingResult:
        """Collect the result after the workers launched by :meth:`start`
        have finished (re-raising the first failed worker's exception)."""
        for p in self._procs:
            if not p.ok:  # pragma: no cover - defensive
                raise p.value
        return TrainingResult(
            sync_name=self.sync_model.name,
            recorder=self.recorder,
            wall_time=self._end_time,
            context=self.ctx,
            iteration_end_time=self.recorder.end_time(),
            tracer=self.env.tracer,
            sampler=self.env.metric_sampler,
        )

    def run(self) -> TrainingResult:
        """Execute the simulation to completion and collect results."""
        done = self.start()
        # Run until every worker process has finished (not until the event
        # queue drains): wall_time then covers in-flight ICS drain but not
        # unrelated trailing timers such as open-ended fault windows. A
        # deadlocked cluster raises SimulationError instead of returning.
        self.env.run(until=done)
        return self.finish()


__all__ = ["DistributedTrainer", "TrainingResult"]
