"""R²SP — Round-Robin Synchronization (Chen, Wang & Li, INFOCOM'19; paper
ref [21] and the paper's main state-of-the-art baseline).

Worker↔PS synchronizations are *scheduled one worker at a time*, so each
transfer gets the full link bandwidth instead of an incast-degraded share.
Update semantics are asynchronous (no global barrier), which is why R²SP
still suffers stale parameters as the worker count grows (§2.2.1).

Two service disciplines:

* ``duplex=False`` (default, matching the original system's behaviour of
  serving one worker's synchronization turn at a time): a worker holds the
  PS for its whole push+pull round trip.
* ``duplex=True`` (idealised variant): push and pull run on separate
  tokens, so worker *k+1*'s push overlaps worker *k*'s pull and the PS's
  full-duplex link is saturated in both directions. This is the best-case
  reading of the paper's "fully utilise the bandwidth of the PS's duplex
  links" and is kept as an ablation (``bench_ablation_baselines``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.cluster.context import TrainerContext

from repro.simcore.resources import Resource
from repro.sync.base import SyncModel


class R2SP(SyncModel):
    """Round-robin scheduled PS synchronization."""

    name = "r2sp"

    def __init__(self, duplex: bool = False) -> None:
        self.duplex = duplex
        if duplex:
            self.name = "r2sp-duplex"

    def setup(self, ctx: TrainerContext) -> None:
        super().setup(ctx)
        self._push_token = Resource(ctx.env, capacity=1)
        self._pull_token = (
            Resource(ctx.env, capacity=1) if self.duplex else self._push_token
        )

    def synchronize(self, ctx, worker, epoch, iteration, grads, loss):
        nbytes = ctx.engine.model_bytes
        yield self._push_token.request()
        held = self._push_token  # released in `finally`, whichever it is
        try:
            yield from self.push(ctx, worker, iteration, "r2sp", nbytes, span="push")
            ctx.ps.apply_immediate(worker, grads)
            if self.duplex:
                # Hand the push token on before pulling; otherwise one
                # worker's whole turn (push, apply, pull) holds the PS.
                held.release()
                held = None
                yield self._pull_token.request()
                held = self._pull_token
            yield from self.pull(ctx, worker, iteration, "r2sp", nbytes, span="pull")
        finally:
            if held is not None:
                held.release()
        ctx.engine.sync_replica(worker, ctx.ps)


__all__ = ["R2SP"]
