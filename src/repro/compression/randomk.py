"""Random-K sparsification (Stich et al., "Sparsified SGD with memory")."""

from __future__ import annotations

import numpy as np

from repro.bounds import FRACTION, INDEX, check_bounds
from repro.compression.base import GradientDict
from repro.compression.topk import TopK, sparse_wire_bytes


class RandomK:
    """Keep a uniformly random ``ratio`` fraction of entries.

    Kept values are scaled by ``1/ratio`` so the compressed gradient is an
    unbiased estimator of the dense one.
    """

    BOUNDS = {"ratio": FRACTION, "seed": INDEX}

    def __init__(self, ratio: float, seed: int = 0) -> None:
        self.ratio = ratio
        self.seed = seed
        check_bounds(self)
        self.ratio = float(ratio)  # a numpy scalar would promote float32 values
        self._rng = np.random.default_rng(seed)

    def compress(self, grads: GradientDict):
        flat = np.concatenate([g.ravel() for g in grads.values()])
        k = max(1, int(round(self.ratio * flat.size)))
        indices = np.sort(self._rng.choice(flat.size, size=k, replace=False))
        values = flat[indices]
        if self.ratio < 1.0:
            values = values / self.ratio
        payload = {
            "shapes": {name: g.shape for name, g in grads.items()},
            "order": list(grads.keys()),
            "indices": indices.astype(np.int64),
            "values": values,
        }
        wire = sparse_wire_bytes(indices.size, len(grads))
        return payload, wire

    # Same payload layout as TopK; reuse its decoder.
    decompress = TopK.decompress


__all__ = ["RandomK"]
