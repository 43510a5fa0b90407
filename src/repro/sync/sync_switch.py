"""Sync-Switch (Li et al., ICDCS'21; paper §2.2.1): BSP during the early
epochs (when stale values would trap the model in poor optima), ASP
afterwards. Implemented as an extension baseline/ablation.
"""

from __future__ import annotations

from repro.bounds import COUNT, check_bounds
from repro.sync.asp import ASP
from repro.sync.bsp import BSP


class SyncSwitch(ASP):
    """BSP for ``switch_epoch`` epochs, then ASP.

    The switch happens at an epoch boundary for all workers. Because BSP
    keeps workers in lockstep through its barrier, every worker reaches the
    boundary at the same iteration count, so the hand-off is clean. One
    model, one setup: the BSP phase runs the base's round on this model's
    own barrier.
    """

    name = "sync-switch"

    BOUNDS = {"switch_epoch": COUNT}

    def __init__(self, switch_epoch: int = 5) -> None:
        self.switch_epoch = switch_epoch
        check_bounds(self)

    def synchronize(self, ctx, worker, epoch, iteration, grads, loss):
        if epoch < self.switch_epoch:
            return BSP.synchronize(self, ctx, worker, epoch, iteration, grads, loss)
        return super().synchronize(ctx, worker, epoch, iteration, grads, loss)


__all__ = ["SyncSwitch"]
