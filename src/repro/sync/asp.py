"""ASP — Asynchronous Parallel (paper §2.1.2, Fig. 2).

Each worker independently pushes its gradients, the PS applies them
immediately (scaled by the worker's data weight), and the worker pulls the
current global parameters. No barrier: stragglers never block others, but
every worker trains on parameters that other workers may have moved since
— the staleness that costs ASP final accuracy (Fig. 6b).
"""

from __future__ import annotations

from repro.sync.base import SyncModel


class ASP(SyncModel):
    """Classic PS-based asynchronous parallel."""

    name = "asp"

    def setup(self, ctx) -> None:
        super().setup(ctx)
        #: PS version each worker last pulled — its replica's freshness.
        self._pull_version: dict[int, int] = {}

    def worker_signals(self, ctx):
        # Observed staleness: PS updates applied since this worker's last
        # pull, i.e. how far its replica lags the global model (DSSP-style).
        version = ctx.ps.version
        return {
            f"osp.worker.{w}.staleness": float(version - pulled)
            for w, pulled in self._pull_version.items()
        }

    def synchronize(self, ctx, worker, epoch, iteration, grads, loss):
        nbytes = ctx.engine.model_bytes
        yield from self.push(ctx, worker, iteration, "asp", nbytes, span="push")
        ctx.ps.apply_immediate(worker, grads)
        yield from self.pull(ctx, worker, iteration, "asp", nbytes, span="pull")
        ctx.engine.sync_replica(worker, ctx.ps)
        self._pull_version[worker] = ctx.ps.version


__all__ = ["ASP"]
