"""Weight initialisers. All take an explicit ``numpy.random.Generator`` so
model construction is deterministic given a seed."""

from __future__ import annotations

import numpy as np


def _fan_in_out(shape: tuple[int, ...]) -> tuple[int, int]:
    if len(shape) == 2:  # Linear: (in, out)
        return shape[0], shape[1]
    if len(shape) == 4:  # Conv: (out, in, kh, kw)
        receptive = shape[2] * shape[3]
        return shape[1] * receptive, shape[0] * receptive
    raise ValueError(f"cannot infer fans for shape {shape}")


def kaiming_normal(shape, rng: np.random.Generator) -> np.ndarray:
    """He initialisation for ReLU networks: N(0, sqrt(2/fan_in))."""
    fan_in, _ = _fan_in_out(shape)
    return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape)


def normal(shape, rng: np.random.Generator) -> np.ndarray:
    """Plain Gaussian init with standard deviation 0.02 (transformer
    convention)."""
    return rng.normal(0.0, 0.02, size=shape)


def zeros(shape) -> np.ndarray:
    """Zero init (biases, norm offsets)."""
    return np.zeros(shape)


def ones(shape) -> np.ndarray:
    """Ones init (norm scales)."""
    return np.ones(shape)


__all__ = ["kaiming_normal", "normal", "ones", "zeros"]
