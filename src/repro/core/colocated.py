"""OSP-C — OSP with a co-located parameter server (paper §4.4, §5.4).

The PS runs on worker 0's node. Two effects:

* worker 0's traffic to/from the PS is loopback (free — shared memory);
* worker 0 additionally executes the PS's PGP computation and per-layer
  sort during its own FP/BP, inflating its **batch computation time**
  (BCT). Fig. 9 measures this overhead at 3–8%, smallest for the
  FLOP-heavy/param-light InceptionV3, largest for the param-heavy VGG16 —
  PGP cost scales with parameters while T_c scales with FLOPs, a ratio our
  :meth:`repro.cluster.engines.Engine.pgp_compute_time` model preserves.

Use with ``ClusterSpec(colocated_ps=True)`` so the topology actually
places the PS on node 0 (the loopback effect); this class adds the compute
effect.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.cluster.context import TrainerContext

from repro.core.osp import OSP


class ColocatedOSP(OSP):
    """OSP-C: worker 0 doubles as the parameter server."""

    name = "osp-c"

    #: OSP's declarations, checked again under OSP-C's own constructor.
    BOUNDS = OSP.BOUNDS

    def __init__(self, **osp_kwargs) -> None:
        super().__init__(**osp_kwargs)
        self.name = "osp-c"

    def setup(self, ctx: TrainerContext) -> None:
        if ctx.spec.ps_node != ctx.spec.worker_node(0):
            raise ValueError(
                "ColocatedOSP requires ClusterSpec(colocated_ps=True), which "
                "puts the PS on worker 0's node"
            )
        super().setup(ctx)
        self._pgp_time = ctx.engine.pgp_compute_time(ctx.spec)

    def extra_compute_time(self, ctx: TrainerContext, worker: int) -> float:
        """The preliminary OSP-C deployment (§5.4): the PS worker begins
        training only after completing PGP calculation and sorting."""
        return self._pgp_time if worker == 0 else 0.0


__all__ = ["ColocatedOSP"]
