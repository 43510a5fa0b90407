"""Sharded synchronization across multiple parameter servers (paper §6.1).

The paper proposes (as the scaling remedy, BytePS-style) sharding the
model across several PSes so each PS aggregates one layer partition for
all workers, dividing the incast per PS by the shard ratio. §6.1 leaves
the orchestration as future work; this module executes it in simulation:

* :func:`repro.core.groups.plan_sync_groups` balances layers across PSes
  (greedy LPT);
* :class:`ShardedBSP` pushes/pulls each shard to/from its PS concurrently
  with a global barrier per iteration — BSP semantics, sharded transport.

Aggregation math stays on one logical :class:`ParameterServer` (numeric
correctness is placement-independent); only the *transport* is sharded,
which is what the §6.1 claim is about.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.cluster.context import TrainerContext

from repro.core.groups import SyncGroupPlan, plan_sync_groups
from repro.netsim.prio import PRIO_NORMAL
from repro.sync.base import SyncModel


class ShardedBSP(SyncModel):
    """BSP with the model sharded across ``spec.n_ps`` parameter servers."""

    name = "sharded-bsp"

    def setup(self, ctx: TrainerContext) -> None:
        super().setup(ctx)
        self.plan: SyncGroupPlan = plan_sync_groups(
            ctx.engine.layer_bytes, ctx.spec.n_ps
        )
        #: One concurrent flow per PS, each carrying that PS's shard.
        self._parts = [
            (ps, nbytes, PRIO_NORMAL, ps) for ps, nbytes in enumerate(self.plan.shard_bytes)
        ]

    def synchronize(self, ctx, worker, epoch, iteration, grads, loss):
        nbytes = ctx.engine.model_bytes
        yield from self.push(ctx, worker, iteration, "sbsp", nbytes, parts=self._parts)
        yield from self.sync_round(ctx, worker, iteration, grads)
        yield from self.pull(ctx, worker, iteration, "sbsp", nbytes, parts=self._parts)
        ctx.engine.sync_replica(worker, ctx.ps)


__all__ = ["ShardedBSP"]
