"""Neural-network library on top of :mod:`repro.autograd`.

Provides the :class:`Module` hierarchy with an ordered, layer-granular
parameter registry — the same granularity OSP's Gradient Importance Bitmap
(GIB) operates on (paper Eq. 4 computes importance per layer).
"""

from repro._lazy import lazy_exports

__all__ = [
    "BatchNorm2d",
    "Conv2d",
    "Embedding",
    "Flatten",
    "GELU",
    "LayerNorm",
    "Linear",
    "MaxPool2d",
    "Module",
    "MultiHeadSelfAttention",
    "Parameter",
    "ReLU",
    "Sequential",
    "TransformerBlock",
    "accuracy",
    "cross_entropy",
    "init",
    "qa_span_accuracy",
    "qa_span_loss",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    __all__,
    {
        ".module": ("Module", "Parameter", "Sequential"),
        ".layers": (
            "BatchNorm2d",
            "Conv2d",
            "Embedding",
            "Flatten",
            "GELU",
            "LayerNorm",
            "Linear",
            "MaxPool2d",
            "ReLU",
        ),
        ".attention": ("MultiHeadSelfAttention", "TransformerBlock"),
        ".loss": ("accuracy", "cross_entropy", "qa_span_accuracy", "qa_span_loss"),
    },
)
