"""Standard layers: linear, convolution, normalisation, pooling, etc.

Every parameterised layer takes an explicit ``rng`` for deterministic
initialisation.
"""

from __future__ import annotations

import numpy as np

from repro.autograd import functional as F
from repro.autograd.tensor import Tensor
from repro.nn import init
from repro.nn.module import Module, Parameter

#: Added to the variance before the square root in every normalisation.
EPS = 1e-5


class Linear(Module):
    """Affine map ``y = x W + b`` with W of shape (in_features, out_features)."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator,
        bias: bool = True,
    ) -> None:
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.kaiming_normal((in_features, out_features), rng))
        self.bias = Parameter(init.zeros(out_features)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out


class Conv2d(Module):
    """2-D convolution (NCHW)."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        rng: np.random.Generator,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
    ) -> None:
        super().__init__()
        self.stride = stride
        self.padding = padding
        shape = (out_channels, in_channels, kernel_size, kernel_size)
        self.weight = Parameter(init.kaiming_normal(shape, rng))
        self.bias = Parameter(init.zeros(out_channels)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.conv2d(x, self.weight, self.bias, stride=self.stride, padding=self.padding)


def _batch_stats(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-channel ``(mean, var)`` of an NCHW array, bit-identical to
    ``x.mean(axis=(0, 2, 3))`` and ``x.var(axis=(0, 2, 3))``.

    ``np.var`` recomputes the mean it is not given; this is its own operation
    order (subtract, square in place, sum, divide) applied to the mean
    already in hand. The deviations keep ``x``'s memory layout, so the sum
    pairs up the same elements for a strided ``x`` as ``np.var`` does.
    """
    mean = x.mean(axis=(0, 2, 3), keepdims=True)
    dev = x - mean
    np.square(dev, out=dev)
    var = dev.sum(axis=(0, 2, 3))
    var /= x.shape[0] * x.shape[2] * x.shape[3]
    return mean.reshape(-1), var


class BatchNorm2d(Module):
    """Batch normalisation over (N, H, W) per channel, with running stats."""

    def __init__(self, num_features: int, momentum: float = 0.1) -> None:
        super().__init__()
        self.gamma = Parameter(init.ones(num_features))
        self.beta = Parameter(init.zeros(num_features))
        self.momentum = momentum
        self.running_mean = np.zeros(num_features)
        self.running_var = np.ones(num_features)

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 4:
            raise ValueError(f"BatchNorm2d expects NCHW input, got shape {x.shape}")
        if self.training:
            mean, var = _batch_stats(x.data)
            self.running_mean = (1 - self.momentum) * self.running_mean + self.momentum * mean
            self.running_var = (1 - self.momentum) * self.running_var + self.momentum * var
        else:
            mean, var = self.running_mean, self.running_var
        # Normalise with the (non-differentiated) batch statistics. Treating
        # mean/var as constants is the "frozen statistics" approximation; it
        # keeps the tape small and is accurate for the small LR regime here.
        scale = self.gamma * (1.0 / np.sqrt(var + EPS))
        shift = self.beta - Tensor(mean) * scale
        return x * scale.reshape(1, -1, 1, 1) + shift.reshape(1, -1, 1, 1)


class LayerNorm(Module):
    """Layer normalisation over the last dimension (transformer convention)."""

    def __init__(self, dim: int) -> None:
        super().__init__()
        self.gamma = Parameter(init.ones(dim))
        self.beta = Parameter(init.zeros(dim))

    def forward(self, x: Tensor) -> Tensor:
        mean = x.mean(axis=-1, keepdims=True)
        centered = x - mean
        var = (centered * centered).mean(axis=-1, keepdims=True)
        normed = centered / ((var + EPS) ** 0.5)
        return normed * self.gamma + self.beta


class ReLU(Module):
    """Rectified linear unit."""

    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class GELU(Module):
    """Gaussian error linear unit (tanh approximation, as in BERT)."""

    def forward(self, x: Tensor) -> Tensor:
        inner = (x + x * x * x * 0.044715) * np.sqrt(2.0 / np.pi)
        return x * (inner.tanh() + 1.0) * 0.5


class MaxPool2d(Module):
    """Max pooling."""

    def __init__(self, kernel: int = 2) -> None:
        super().__init__()
        self.kernel = kernel

    def forward(self, x: Tensor) -> Tensor:
        return F.max_pool2d(x, kernel=self.kernel)


class Flatten(Module):
    """Flatten all but the batch dimension."""

    def forward(self, x: Tensor) -> Tensor:
        return x.reshape(x.shape[0], -1)


class Embedding(Module):
    """Token embedding table."""

    def __init__(self, num_embeddings: int, dim: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.weight = Parameter(init.normal((num_embeddings, dim), rng))

    def forward(self, indices: np.ndarray) -> Tensor:
        return F.embedding(self.weight, indices)


__all__ = [
    "BatchNorm2d",
    "Conv2d",
    "Embedding",
    "Flatten",
    "GELU",
    "LayerNorm",
    "Linear",
    "MaxPool2d",
    "ReLU",
]
