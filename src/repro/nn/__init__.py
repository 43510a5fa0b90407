"""Neural-network library on top of :mod:`repro.autograd`.

Provides the :class:`Module` hierarchy with an ordered, layer-granular
parameter registry — the same granularity OSP's Gradient Importance Bitmap
(GIB) operates on (paper Eq. 4 computes importance per layer).
"""

from repro.nn.module import Module, Parameter, Sequential
from repro.nn.layers import (
    BatchNorm2d,
    Conv2d,
    Embedding,
    Flatten,
    GELU,
    LayerNorm,
    Linear,
    MaxPool2d,
    ReLU,
)
from repro.nn.attention import MultiHeadSelfAttention, TransformerBlock
from repro.nn.loss import (
    accuracy,
    cross_entropy,
    qa_span_accuracy,
    qa_span_loss,
)
from repro.nn import init

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
