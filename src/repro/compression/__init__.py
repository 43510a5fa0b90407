"""Gradient compression baselines (paper §2.2.2 / §7).

OSP's pitch is that unlike sparsification it *defers* rather than *drops*
gradients. To demonstrate that contrast we implement the standard
compressors the paper cites — Top-K, Random-K (Aji & Heafield; Stich et
al.), 8-bit quantisation (Dettmers) — plus the error-feedback residual
memory used by Deep Gradient Compression-style systems.

All compressors share one interface: ``compress(grads) → (payload,
bytes_on_wire)``; ``decompress(payload) → grads``. The "grads" type is a
name→ndarray dict, the same shape the sync models move around.
"""

from repro._lazy import lazy_exports

__all__ = [
    "Compressor",
    "GradientDict",
    "RandomK",
    "ResidualMemory",
    "TopK",
    "Uniform8Bit",
    "dense_bytes",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    __all__,
    {
        ".base": ("Compressor", "GradientDict", "dense_bytes"),
        ".topk": ("TopK",),
        ".randomk": ("RandomK",),
        ".quantize": ("Uniform8Bit",),
        ".residual": ("ResidualMemory",),
    },
)
