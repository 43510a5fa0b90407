"""Per-iteration compute-time model.

``T_c = (fwd + bwd) FLOPs / achieved FLOP/s + fixed overhead``, where
``bwd ≈ 2 × fwd`` (gradient w.r.t. activations + w.r.t. weights), i.e. the
standard ``3×`` rule. Fixed overhead covers kernel-launch, host-side data
loading and optimiser step — a few milliseconds per iteration on the
paper's testbed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.bounds import NON_NEGATIVE, POSITIVE, check_bounds
from repro.hardware.gpu import GPUSpec

#: backward pass ≈ 2x the forward pass.
BACKWARD_FACTOR = 2.0


@dataclass(frozen=True)
class ComputeModel:
    """Computes iteration time for (model, batch) on a GPU.

    Parameters
    ----------
    gpu:
        The GPU executing the iteration.
    fixed_overhead:
        Per-iteration constant cost in seconds (data loading, launch,
        optimiser step).
    pgp_bandwidth:
        Effective parameter-processing rate (bytes/s) of the paper's
        *preliminary* PGP implementation (§5.4): one small kernel per layer
        for the ``|g·p|`` sums plus a host-side sort — launch- and
        PCIe-bound rather than FLOP-bound, hence far below memory
        bandwidth. Calibrated so OSP-C overhead lands in the paper's 3–8%
        band with the correct per-model ordering (params/FLOPs ratio).
    """

    gpu: GPUSpec
    fixed_overhead: float = 4e-3
    pgp_bandwidth: float = 3e9

    BOUNDS = {"fixed_overhead": NON_NEGATIVE, "pgp_bandwidth": POSITIVE}
    __post_init__ = check_bounds

    def iteration_time(self, flops_per_sample: float, batch_size: int) -> float:
        """Seconds for one forward+backward over ``batch_size`` samples."""
        if flops_per_sample <= 0:
            raise ValueError(f"flops_per_sample must be positive, got {flops_per_sample}")
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        flops = (1.0 + BACKWARD_FACTOR) * flops_per_sample * batch_size
        return flops / self.gpu.achieved_flops + self.fixed_overhead

    def pgp_time(self, n_params: int, n_layers: int) -> float:
        """Cost of PGP importance computation + per-layer sort (§4.4).

        Charged at :attr:`pgp_bandwidth` over the parameter bytes (one
        ``|g·p|`` reduction kernel per layer, launch/PCIe-bound in the
        paper's preliminary implementation) plus a per-layer launch cost
        and an ``O(L log L)`` host sort (both tiny, but modelled so the
        layer count matters at all).
        """
        if n_params < 0 or n_layers < 0:
            raise ValueError("n_params and n_layers must be >= 0")
        elementwise = 4.0 * n_params / self.pgp_bandwidth
        launch = 10e-6 * n_layers  # one kernel launch per layer
        log_l = math.log2(n_layers) if n_layers > 1 else 1.0
        sort = 1e-7 * n_layers * log_l
        return elementwise + launch + sort


__all__ = ["BACKWARD_FACTOR", "ComputeModel"]
