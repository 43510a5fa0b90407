"""GPU specifications.

Peak FP32 throughputs match the figures the paper quotes in §1
(RTX 2080 Ti: 13.45 TFLOPS, RTX 3090: 35.58 TFLOPS) and the public
datasheet number for the testbed's Tesla T4 (§5.1.1).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bounds import FRACTION, POSITIVE, check_bounds


@dataclass(frozen=True)
class GPUSpec:
    """A GPU model with its peak FP32 throughput.

    Parameters
    ----------
    name:
        Marketing name, used as the catalogue key.
    tflops:
        Peak FP32 TFLOPS.
    memory_gb:
        Device memory (used only for sanity checks on batch sizes).
    efficiency:
        Fraction of peak realistically achieved by DNN training kernels.
    """

    name: str
    tflops: float
    memory_gb: float = 16.0
    efficiency: float = 0.33

    BOUNDS = {"tflops": POSITIVE, "memory_gb": POSITIVE, "efficiency": FRACTION}
    __post_init__ = check_bounds

    @property
    def achieved_flops(self) -> float:
        """Sustained FLOP/s for training workloads."""
        return self.tflops * 1e12 * self.efficiency


#: Catalogue of GPUs referenced by the paper plus common comparators.
GPU_CATALOG: dict[str, GPUSpec] = {
    spec.name: spec
    for spec in [
        # T4 efficiency is set from measured ResNet50 training throughput
        # (~110 img/s ⇒ ~1.5 sustained TFLOPS ≈ 18% of the 8.1 peak).
        GPUSpec("tesla-t4", tflops=8.1, memory_gb=16.0, efficiency=0.18),
        GPUSpec("rtx2080ti", tflops=13.45, memory_gb=11.0),
        GPUSpec("rtx3090", tflops=35.58, memory_gb=24.0),
        GPUSpec("v100", tflops=14.0, memory_gb=32.0),
        GPUSpec("a100", tflops=19.5, memory_gb=40.0),
    ]
}


def get_gpu(name: str) -> GPUSpec:
    """Look up a GPU by catalogue name (raises KeyError with suggestions)."""
    try:
        return GPU_CATALOG[name]
    except KeyError:
        known = ", ".join(sorted(GPU_CATALOG))
        raise KeyError(f"unknown GPU {name!r}; known: {known}") from None


__all__ = ["GPUSpec", "GPU_CATALOG", "get_gpu"]
