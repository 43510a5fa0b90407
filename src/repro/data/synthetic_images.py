"""Synthetic image-classification data: Gaussian class mixtures.

Each class gets a smooth random prototype image; samples are prototypes
plus per-sample Gaussian noise. ``noise`` controls separability, giving a
real generalisation gap and non-trivial convergence curves — what the
sync-model comparison needs from CIFAR-style data.
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import Dataset


def _blur(x: np.ndarray, sigma: float) -> np.ndarray:
    """Gaussian blur of the last two axes of an NCHW array.

    Bit-identical to ``scipy.ndimage.gaussian_filter(x, sigma=(0, 0, s, s))``:
    the same kernel (truncated at 4σ), mirrored edges (scipy's ``reflect``
    is numpy's ``symmetric``) and scipy's summation order — the centre tap,
    then each mirrored pair from the outermost inward.
    """
    r = int(4.0 * sigma + 0.5)
    w = np.exp(-0.5 / (sigma * sigma) * np.arange(-r, r + 1) ** 2)
    w = w / w.sum()
    for axis in (2, 3):
        n = x.shape[axis]
        pad = [(0, 0)] * x.ndim
        pad[axis] = (r, r)
        p = np.pad(x, pad, mode="symmetric")

        def tap(j: int) -> np.ndarray:
            return np.take(p, np.arange(r + j, r + j + n), axis=axis)

        x = tap(0) * w[r]
        for j in range(r, 0, -1):
            x += (tap(-j) + tap(j)) * w[r + j]
    return x


def make_image_classification(
    n_samples: int,
    n_classes: int = 10,
    image_size: int = 16,
    channels: int = 3,
    noise: float = 1.0,
    prototype_smoothness: float = 2.0,
    seed: int = 0,
) -> Dataset:
    """Build a CIFAR-like synthetic classification dataset.

    Parameters
    ----------
    n_samples:
        Total samples; classes are balanced (±1).
    n_classes:
        10 for CIFAR-10-like, 100 for CIFAR-100-like, etc.
    image_size, channels:
        Spatial size and channel count (NCHW output).
    noise:
        Per-pixel noise std relative to prototype std; higher = harder.
    prototype_smoothness:
        Gaussian-blur sigma applied to prototypes so classes differ in
        low-frequency structure (convnet-learnable) rather than pixel hash.
    seed:
        Determinism seed.
    """
    if n_samples < n_classes:
        raise ValueError(f"need >= {n_classes} samples, got {n_samples}")
    if n_classes < 2:
        raise ValueError(f"need >= 2 classes, got {n_classes}")
    if not (prototype_smoothness > 0):
        raise ValueError(
            f"prototype_smoothness must be > 0, got {prototype_smoothness}"
        )

    rng = np.random.default_rng(seed)

    prototypes = rng.normal(size=(n_classes, channels, image_size, image_size))
    prototypes = _blur(prototypes, prototype_smoothness)
    # Renormalise so the blur does not shrink class separation.
    prototypes /= prototypes.std(axis=(1, 2, 3), keepdims=True)

    labels = np.tile(np.arange(n_classes), n_samples // n_classes + 1)[:n_samples]
    rng.shuffle(labels)
    images = prototypes[labels] + noise * rng.normal(
        size=(n_samples, channels, image_size, image_size)
    )
    return Dataset(images.astype(np.float64), labels.astype(np.int64), "classification")


__all__ = ["make_image_classification"]
