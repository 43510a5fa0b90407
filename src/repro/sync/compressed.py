"""BSP with gradient compression (the §2.2.2 alternative to OSP).

Sparsification/quantisation attacks the same bottleneck as OSP — bytes on
the wire per iteration — but by *dropping* information instead of
*deferring* it. This sync model wires any :class:`repro.compression`
codec into the BSP round so the cluster-level trade-off (throughput gained
vs accuracy lost) can be measured against OSP's.

Semantics: each worker compresses its gradient after backprop; the wire
carries the compressed bytes; the PS decompresses and averages the lossy
gradients; the parameter pull stays dense (as in Aji & Heafield's sparse
push / dense pull design).
"""

from __future__ import annotations

import numpy as np

from repro.bounds import FRACTION, check_bounds
from repro.compression.base import Compressor, dense_bytes
from repro.sync.base import SyncModel


class CompressedBSP(SyncModel):
    """BSP with a pluggable gradient codec on the push path.

    Parameters
    ----------
    compressor:
        Any :mod:`repro.compression` codec. In numeric mode the actual
        compressed size sets the wire bytes (scaled to paper scale); in
        timing mode ``nominal_ratio`` is used (no real gradients exist).
    nominal_ratio:
        Wire bytes as a fraction of dense, for timing mode.
    """

    name = "compressed-bsp"

    BOUNDS = {"nominal_ratio": FRACTION}

    def __init__(
        self,
        compressor: Compressor,
        nominal_ratio: float = 0.1,
        label: str | None = None,
    ) -> None:
        self.compressor = compressor
        self.nominal_ratio = nominal_ratio
        check_bounds(self)
        suffix = label if label is not None else type(compressor).__name__.lower()
        self.name = f"compressed-bsp-{suffix}"

    def synchronize(self, ctx, worker, epoch, iteration, grads, loss):
        model_bytes = ctx.engine.model_bytes
        if grads is not None:
            payload, wire = self.compressor.compress(grads)
            lossy = self.compressor.decompress(payload)
            push_bytes = model_bytes * (wire / max(1, dense_bytes(grads)))
        else:
            lossy = None
            push_bytes = model_bytes * self.nominal_ratio

        yield from self.push(ctx, worker, iteration, "cbsp", push_bytes)
        yield from self.sync_round(ctx, worker, iteration, lossy)
        # Dense parameter pull (sparse-push / dense-pull convention).
        yield from self.pull(ctx, worker, iteration, "cbsp", model_bytes)
        ctx.engine.sync_replica(worker, ctx.ps)

    # -- checkpointing: a stateful codec's memory travels with the run ---------
    def _codecs_with(self, attr: str):
        """``(depth, codec)`` down the wrapper chain for codecs owning ``attr``."""
        codec, depth = self.compressor, 0
        while codec is not None:
            if hasattr(codec, attr):
                yield depth, codec
            codec, depth = getattr(codec, "inner", None), depth + 1

    def checkpoint_state(self, ctx) -> dict:
        # RandomK's generator, as the jitter PCG64 streams travel.
        return {
            "rng": {str(d): c._rng.bit_generator.state for d, c in self._codecs_with("_rng")}
        }

    def checkpoint_arrays(self, ctx) -> dict:
        return {
            f"residual/{d}/{name}": r
            for d, c in self._codecs_with("_residual")
            for name, r in c._residual.items()
        }

    def restore_state(self, ctx, state, arrays) -> None:
        for d, codec in self._codecs_with("_rng"):
            codec._rng.bit_generator.state = state["rng"][str(d)]
        for d, codec in self._codecs_with("_residual"):
            prefix = f"residual/{d}/"
            codec._residual = {
                key[len(prefix):]: np.array(arr)
                for key, arr in arrays.items()
                if key.startswith(prefix)
            }


__all__ = ["CompressedBSP"]
