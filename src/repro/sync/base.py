"""SyncModel base: the shared per-worker training loop skeleton and the
one synchronous round.

Each iteration: (optional pre-compute wait) → compute → synchronize →
record. Subclasses implement :meth:`synchronize` (and optionally
:meth:`before_compute`, :meth:`extra_compute_time`, :meth:`setup`,
:meth:`on_epoch_end`). All of these run inside simcore processes — the
generators may ``yield`` events.

"Deposit, wait for everyone, average once" is :meth:`SyncModel.sync_round`
and is written nowhere else (``tests/sync/test_one_round.py`` holds that):
BSP and its variants are the round over the whole model, OSP's RS stage
(§4.3: all layers in RS *is* BSP) the round over the important layers. A
round model keeps only its push / pull plan.

That plan is spelled with :meth:`SyncModel.push` and :meth:`SyncModel.pull`:
one span, one tag and one priority class per stage, and the flows under it.
No other module starts a worker ↔ PS flow except the two OSP keeps by hand
(the ICS push, whose event the next iteration's Eq. 5 check reads, and the
fire-and-forget GIB broadcast), and the same test holds that too.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.faults.schedule import WorkerLeave
from repro.netsim.prio import PRIO_NORMAL

if TYPE_CHECKING:
    from repro.cluster.context import TrainerContext


class SyncModel:
    """Base synchronization model (see module docstring)."""

    #: Human-readable name used in results and benchmark tables.
    name = "abstract"

    #: Optional virtual-seconds deadline for the round, measured from its
    #: first arrival; on expiry whoever arrived proceeds (§4.3 resilience).
    quorum_timeout: Optional[float] = None

    def setup(self, ctx: TrainerContext) -> None:
        """One-time initialisation before worker processes start."""
        ctx.epoch_end_hooks.append(
            lambda epoch, loss, metric: self.on_epoch_end(ctx, epoch, loss, metric)
        )
        # The round's barrier tracks the alive set: a crash, restart, join
        # or leave resizes it, so no round ever waits on an absent worker.
        self._round_barrier = ctx.quorum_barrier(
            timeout=self.quorum_timeout,
            on_degraded=lambda gen, size: ctx.recorder.incr("osp.quorum_timeout"),
        )
        self._closed_generation = -1

    def on_epoch_end(
        self, ctx: TrainerContext, epoch: int, train_loss: float, metric: float
    ) -> None:
        """Called once per finished epoch (all workers done, post-eval)."""

    def extra_compute_time(self, ctx: TrainerContext, worker: int) -> float:
        """Additional per-iteration compute charged to this worker
        (co-located PS duties, §4.4)."""
        return 0.0

    def before_compute(self, ctx: TrainerContext, worker: int, iteration: int):
        """Generator hook before an iteration's compute (SSP waits here)."""
        return
        yield  # pragma: no cover - makes this a generator

    def synchronize(
        self,
        ctx: TrainerContext,
        worker: int,
        epoch: int,
        iteration: int,
        grads,
        loss: float,
    ):
        """Generator: perform this model's synchronization for one
        iteration. Virtual time spent here is recorded as BST."""
        raise NotImplementedError
        yield  # pragma: no cover

    # -- the synchronous round -------------------------------------------------
    def sync_round(self, ctx: TrainerContext, worker: int, iteration: int, grads):
        """Generator: deposit ``grads``, wait for the round, close it once.

        The round closes when the barrier trips — on a full quorum, a
        degraded one (timeout) or a shrunk one (crash, leave) — and is
        closed by the first worker released: the trip is URGENT and this is
        straight-line code, so the average lands before any released
        worker's pull can start. Whatever deposits are present get the
        reweighted average instead of the round hanging on the absent.
        """
        bucket = f"rs:{iteration}"
        ctx.ps.accumulate(bucket, worker, grads)
        trace = ctx.env.tracer
        if trace:
            span = trace.begin(
                "rs_barrier_wait", f"worker {worker}", worker=worker, iteration=iteration
            )
        generation = yield self._round_barrier.wait()
        if trace:
            trace.end(span)
        if generation != self._closed_generation:
            self._closed_generation = generation
            n = ctx.ps.pending(bucket)
            if trace:
                trace.gauge("osp.quorum_size", n)
            if n:
                if n < ctx.spec.n_workers:
                    ctx.recorder.incr("osp.degraded_quorum")
                # apply_average renormalises over the present workers'
                # weights — the degraded-quorum reweighting.
                ctx.ps.apply_average(bucket)
            self.on_round_close(ctx, iteration, n)
            for hook in ctx.round_close_hooks:
                hook(iteration, n)

    def on_round_close(self, ctx: TrainerContext, iteration: int, n_deposits: int) -> None:
        """Called once per closed round, after its average was applied."""

    # -- the traffic verbs -----------------------------------------------------
    def push(self, ctx, worker, iteration, tag, nbytes, span="rs_push",
             prio=PRIO_NORMAL, parts=None, track="workers"):
        """Generator: move ``nbytes`` worker → PS under one ``span``.

        The flow is tagged ``(f"{tag}-push", worker, iteration)`` and sent in
        class ``prio``. With ``parts = [(key, nbytes, prio, ps_index), …]``
        one concurrent flow per part is started instead, each tagged
        ``(f"{tag}-push", worker, iteration, key)``, and they are waited on
        in order; ``nbytes`` is then only the span's ``bytes``. ``track``
        picks the timeline lane: ``"workers"`` (actor ``worker {w}``) or a
        per-worker side lane such as ``"ics"`` (``worker {w} (ics)``).
        """
        return _move(ctx, ctx.transfer_to_ps, f"{tag}-push", worker, iteration,
                     nbytes, span, prio, parts, track)

    def pull(self, ctx, worker, iteration, tag, nbytes, span="rs_pull",
             prio=PRIO_NORMAL, parts=None, track="workers"):
        """Generator: the mirror of :meth:`push`, PS → worker, ``{tag}-pull``."""
        return _move(ctx, ctx.transfer_from_ps, f"{tag}-pull", worker, iteration,
                     nbytes, span, prio, parts, track)

    # -- the shared loop -----------------------------------------------------
    def worker_process(self, ctx: TrainerContext, worker: int):
        """The per-worker simcore process driving training."""
        ipe = ctx.iterations_per_epoch
        trace = ctx.env.tracer  # None when tracing is off: no span is built
        actor = f"worker {worker}"
        epoch = ctx.start_epoch
        if worker not in ctx.alive_workers:
            # An elastic joiner, or a restart whose crash precedes a
            # checkpoint resume: enter at the timeline's next entry.
            epoch = yield from self._sit_out(ctx, worker, epoch)
            if epoch is None:
                return
        while epoch < ctx.plan.n_epochs:
            if ctx.skip_epoch(epoch):
                break
            departure = ctx.depart(worker, epoch)
            if departure is not None:
                # A graceful leave drains in-flight background work first; a
                # crash loses it. Either way the worker is out until its
                # timeline's next entry (a restart), if any.
                if isinstance(departure, WorkerLeave):
                    yield from self.finalize(ctx, worker)
                epoch = yield from self._sit_out(ctx, worker, epoch)
                if epoch is None:
                    return
                continue
            for batch in range(ipe):
                iteration = epoch * ipe + batch
                yield from self.before_compute(ctx, worker, iteration)
                for hook in ctx.compute_start_hooks:
                    hook(worker, iteration)
                if trace:
                    it_span = trace.begin(
                        "iteration", actor, cat="iteration",
                        worker=worker, iteration=iteration, epoch=epoch,
                    )
                grads, loss, samples, t_c, t_start = yield from ctx.compute(
                    worker,
                    epoch,
                    batch,
                    extra_time=self.extra_compute_time(ctx, worker),
                )
                sync_start = ctx.env.now
                if trace:
                    sync_span = trace.begin("sync", actor, worker=worker, iteration=iteration)
                yield from self.synchronize(
                    ctx, worker, epoch, iteration, grads, loss
                )
                if trace:
                    trace.end(sync_span)
                    trace.end(it_span)
                ctx.record_iteration(
                    worker,
                    iteration,
                    t_start,
                    t_c,
                    ctx.env.now - sync_start,
                    loss,
                    samples,
                )
            ctx.epoch_done(worker, epoch)
            yield from ctx.checkpoint_pause(worker, epoch)
            epoch += 1
        yield from self.finalize(ctx, worker)

    def _sit_out(self, ctx: TrainerContext, worker: int, epoch: int):
        """Generator: stay out until the cluster finishes the epoch before
        ``worker``'s next timeline entry at or after ``epoch``, then admit it
        there. Returns that entry epoch, or None when the worker never
        comes (back): no entry within the plan, or the run ended (early
        stop) while it was out."""
        entry = ctx.next_entry(worker, epoch)
        if entry is None or entry >= ctx.plan.n_epochs:
            return None
        yield ctx.epoch_completion(entry - 1)
        if not ctx.admit(worker, entry):
            return None
        gate = ctx.checkpoint_gate(entry - 1)
        if gate is not None:
            yield gate  # don't race an in-progress snapshot drain
        return entry

    def finalize(self, ctx: TrainerContext, worker: int):
        """Generator hook after a worker's last iteration (drain in-flight
        background work, e.g. OSP's final ICS)."""
        return
        yield  # pragma: no cover

    # -- checkpointing --------------------------------------------------------
    def checkpoint_state(self, ctx: TrainerContext) -> dict:
        """JSON-able sync-model state for a checkpoint (default: none)."""
        return {}

    def checkpoint_arrays(self, ctx: TrainerContext) -> dict:
        """Named numeric arrays for a checkpoint (default: none)."""
        return {}

    def restore_state(self, ctx: TrainerContext, state: dict, arrays: dict) -> None:
        """Restore state captured by :meth:`checkpoint_state` /
        :meth:`checkpoint_arrays`; called after :meth:`setup` on resume."""

    def inflight_events(self, ctx: TrainerContext) -> list:
        """Events for background work still in flight (checkpoint drain)."""
        return []

    def inflight_bytes(self, ctx: TrainerContext) -> float:
        """Wire bytes currently in flight (checkpoint discard accounting)."""
        return 0.0

    # -- health sampling -------------------------------------------------------
    def worker_signals(self, ctx: TrainerContext) -> dict:
        """Per-worker health signals for the time-series sampler.

        Returns a mapping of fully-qualified ``osp.worker.{w}.*`` track
        names (see :data:`repro.obs.registry.TRACKS`) to current values.
        Read-only: implementations must not mutate protocol state or create
        simulation events. Model-specific values override the sampler's
        generic recorder-derived ones (e.g. SSP's bound-relative staleness
        replaces the progress-lag estimate).
        """
        if self._closed_generation < 0:
            return {}
        # The round pins every replica to the same version: staleness is
        # identically zero for every model that closes one.
        return {f"osp.worker.{w}.staleness": 0.0 for w in ctx.alive_workers}


def _move(ctx, transfer, tag, worker, iteration, nbytes, span, prio, parts, track):
    """The one body behind :meth:`SyncModel.push` / :meth:`SyncModel.pull`:
    open the span, start the flows, wait on them in order, close the span.
    Untraced, the span costs one falsy test on each side."""
    trace = ctx.env.tracer
    if trace:
        actor = f"worker {worker}" if track == "workers" else f"worker {worker} ({track})"
        opened = trace.begin(
            span, actor, track=track, worker=worker, iteration=iteration, bytes=nbytes
        )
    if parts is None:
        yield transfer(worker, nbytes, tag=(tag, worker, iteration), prio=prio)
    else:
        flows = [
            transfer(worker, size, tag=(tag, worker, iteration, key), prio=cls, ps_index=ps)
            for key, size, cls, ps in parts
        ]
        for flow in flows:
            yield flow
    if trace:
        trace.end(opened)


__all__ = ["SyncModel"]
