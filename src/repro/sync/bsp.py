"""BSP — Bulk Synchronous Parallel (paper §2.1.2, Fig. 1).

All workers push their full gradients simultaneously (incast on the PS
downlink), the PS applies the weighted average once per round, then all
workers pull the full updated parameters simultaneously (incast on the PS
uplink). A global barrier makes every iteration cost the slowest worker's
time.
"""

from __future__ import annotations

from repro.sync.base import SyncModel


class BSP(SyncModel):
    """Classic PS-based bulk synchronous parallel."""

    name = "bsp"

    def synchronize(self, ctx, worker, epoch, iteration, grads, loss):
        # Same span names as OSP's RS stage (BSP ≡ RS over the full model),
        # so traced timelines compare apples-to-apples.
        nbytes = ctx.engine.model_bytes
        yield from self.push(ctx, worker, iteration, "bsp", nbytes)
        yield from self.sync_round(ctx, worker, iteration, grads)
        yield from self.pull(ctx, worker, iteration, "bsp", nbytes)
        ctx.engine.sync_replica(worker, ctx.ps)


__all__ = ["BSP"]
