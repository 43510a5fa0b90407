"""Top-K sparsification: keep the K% largest-magnitude gradient entries."""

from __future__ import annotations

import numpy as np

from repro.bounds import FRACTION, check_bounds
from repro.compression.base import (
    GradientDict,
    _BYTES_PER_FLOAT,
    _BYTES_PER_INDEX,
)


def sparse_wire_bytes(n_kept: int, n_tensors: int) -> int:
    """Wire cost of a sparse (index, value) payload.

    Per kept entry one float + one index, plus per-tensor metadata (the
    element count needed to rebuild shapes) at index width — mirroring
    ``Uniform8Bit``'s 4-bytes-per-tensor scale convention so compression
    ratios against ``dense_bytes`` stay comparable across compressors.
    """
    return n_kept * (_BYTES_PER_FLOAT + _BYTES_PER_INDEX) + n_tensors * _BYTES_PER_INDEX


class TopK:
    """Keep the global top ``ratio`` fraction of entries by |value|.

    Selection is global across all tensors (as in Aji & Heafield), not
    per-tensor, so large layers do not crowd out small but important ones
    any more than their magnitudes warrant.
    """

    BOUNDS = {"ratio": FRACTION}

    def __init__(self, ratio: float) -> None:
        self.ratio = ratio
        check_bounds(self)

    def compress(self, grads: GradientDict):
        flat = np.concatenate([g.ravel() for g in grads.values()])
        k = max(1, int(round(self.ratio * flat.size)))
        if k >= flat.size:
            keep_mask = np.ones(flat.size, dtype=bool)
        else:
            threshold = np.partition(np.abs(flat), flat.size - k)[flat.size - k]
            keep_mask = np.abs(flat) >= threshold
            # Ties can push us over k; trim deterministically from the end.
            excess = keep_mask.sum() - k
            if excess > 0:
                tie_positions = np.flatnonzero(
                    keep_mask & (np.abs(flat) == threshold)
                )
                keep_mask[tie_positions[-excess:]] = False
        indices = np.flatnonzero(keep_mask)
        payload = {
            "shapes": {name: g.shape for name, g in grads.items()},
            "order": list(grads.keys()),
            "indices": indices.astype(np.int64),
            "values": flat[indices],
        }
        wire = sparse_wire_bytes(indices.size, len(grads))
        return payload, wire

    def decompress(self, payload) -> GradientDict:
        shapes = payload["shapes"]
        total = sum(int(np.prod(s)) for s in shapes.values())
        # Preserve the input dtype: a bare np.zeros(total) is float64 and
        # silently upcast float32 gradients through the round-trip.
        flat = np.zeros(total, dtype=payload["values"].dtype)
        flat[payload["indices"]] = payload["values"]
        out: GradientDict = {}
        offset = 0
        for name in payload["order"]:
            shape = shapes[name]
            size = int(np.prod(shape))
            out[name] = flat[offset : offset + size].reshape(shape)
            offset += size
        return out


__all__ = ["TopK", "sparse_wire_bytes"]
