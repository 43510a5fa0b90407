"""Hardware models: GPUs, per-iteration compute time, stragglers.

The paper's timing claims hinge on the ratio of per-iteration computation
time ``T_c`` to synchronization time. We model ``T_c`` from first
principles: a training iteration costs roughly ``3 × FLOPs_forward`` (one
forward + a backward that is ~2× forward), divided by the GPU's *achieved*
throughput (peak TFLOPS × an efficiency factor — deep learning kernels on
real GPUs reach 25–45% of peak for these convnets).

Straggler models inject per-iteration compute-time jitter — the phenomenon
that makes BSP's barrier expensive (Fig. 1) and ASP attractive (Fig. 2).
"""

from repro._lazy import lazy_exports

__all__ = [
    "ComputeModel",
    "GPU_CATALOG",
    "GPUSpec",
    "JitterModel",
    "LognormalJitter",
    "NoJitter",
    "PersistentStraggler",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    __all__,
    {
        ".gpu": ("GPU_CATALOG", "GPUSpec"),
        ".compute": ("ComputeModel",),
        ".jitter": (
            "JitterModel",
            "LognormalJitter",
            "NoJitter",
            "PersistentStraggler",
        ),
    },
)
