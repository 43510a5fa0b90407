"""SSP — Stale Synchronous Parallel (Ho et al., paper ref [20]).

ASP with a bound: the fastest worker may run at most ``staleness``
iterations ahead of the slowest. Workers exceeding the bound block before
their next compute until the stragglers catch up.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.cluster.context import TrainerContext

import numpy as np

from repro.bounds import INDEX, check_bounds
from repro.simcore.events import Event
from repro.sync.asp import ASP


class SSP(ASP):
    """Staleness-bounded asynchronous parallel.

    The bound is computed over the *alive* worker set (see ``floor``) and
    blocked workers are woken on membership changes, so crashes, departures
    and late joiners neither deadlock nor stall the cohort.
    """

    name = "ssp"

    BOUNDS = {"staleness": INDEX}

    def __init__(self, staleness: int = 3) -> None:
        self.staleness = staleness
        check_bounds(self)

    def setup(self, ctx: TrainerContext) -> None:
        super().setup(ctx)
        self._progress = np.zeros(ctx.spec.n_workers, dtype=np.int64)
        self._progress_event: Event = ctx.env.event()
        # A membership change moves the alive-only floor, so anyone blocked
        # on the bound must re-check (same wake pattern as synchronize).
        ctx.membership_hooks.append(lambda _n: self._wake(ctx))

    def _wake(self, ctx) -> None:
        if not self._progress_event.triggered:
            old, self._progress_event = self._progress_event, ctx.env.event()
            old.succeed()

    def floor(self, ctx) -> int:
        """Slowest *alive* worker's progress — the bound must not gate
        survivors on a crashed or departed worker's frozen counter."""
        alive = ctx.alive_workers
        if not alive:
            return int(self._progress.max())
        return min(int(self._progress[w]) for w in alive)

    def before_compute(self, ctx, worker, iteration):
        # A late joiner (or crash/restart rejoiner) re-syncs its replica at
        # entry, so it is not stale: seed its progress at the entry
        # iteration instead of letting a zero stall the whole cohort.
        if iteration > int(self._progress[worker]):
            self._progress[worker] = iteration
        span = None
        while iteration - self.floor(ctx) > self.staleness:
            if span is None:
                span = ctx.trace.begin(
                    "staleness_wait", f"worker {worker}",
                    worker=worker, iteration=iteration,
                )
            # Wait for any worker to complete an iteration, then re-check.
            ev = self._progress_event
            if ev.triggered:
                self._progress_event = ctx.env.event()
                continue
            yield ev
        if span is not None:
            ctx.trace.end(span)

    def worker_signals(self, ctx):
        # Bound-relative staleness (iteration lag behind the fastest worker)
        # overrides ASP's version-lag estimate — this is the quantity the
        # SSP bound actually constrains, so it's the one to dashboard.
        signals = super().worker_signals(ctx)
        fastest = int(self._progress.max())
        for w in range(len(self._progress)):
            signals[f"osp.worker.{w}.progress"] = float(self._progress[w])
            signals[f"osp.worker.{w}.staleness"] = float(fastest - int(self._progress[w]))
        return signals

    def synchronize(self, ctx, worker, epoch, iteration, grads, loss):
        yield from super().synchronize(ctx, worker, epoch, iteration, grads, loss)
        self._progress[worker] = iteration + 1
        self._wake(ctx)

    # -- checkpointing: restored workers must not block on zeroed counters ----
    def checkpoint_state(self, ctx) -> dict:
        return {"progress": self._progress.tolist()}

    def restore_state(self, ctx, state, arrays) -> None:
        self._progress[:] = state["progress"]


__all__ = ["SSP"]
