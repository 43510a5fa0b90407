"""Error-feedback residual memory (the mechanism behind Deep Gradient
Compression and Sparsified-SGD-with-memory, paper refs [26, 27]).

Wraps any compressor: the difference between the true gradient and what the
compressor transmitted is carried forward and added to the next gradient,
so nothing is permanently lost — only delayed. (OSP achieves "delay, don't
drop" differently: by scheduling the full gradient across RS+ICS.)
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.compression.base import Compressor, GradientDict


class ResidualMemory:
    """Error-feedback wrapper around an inner compressor."""

    def __init__(self, inner: Compressor) -> None:
        self.inner = inner
        self._residual: GradientDict = {}

    def compress(self, grads: GradientDict) -> tuple[Any, int]:
        corrected: GradientDict = {}
        for name, g in grads.items():
            r = self._residual.pop(name, None)
            corrected[name] = g + r if r is not None else g.copy()
        payload, wire = self.inner.compress(corrected)
        sent = self.inner.decompress(payload)
        # Only the keys seen in this call get fresh residuals; residuals for
        # layers absent from `grads` stay carried forward untouched, so
        # "delay, don't drop" holds even across disjoint per-call layer sets.
        for name in corrected:
            self._residual[name] = corrected[name] - sent[name]
        return payload, wire

    def decompress(self, payload: Any) -> GradientDict:
        return self.inner.decompress(payload)


__all__ = ["ResidualMemory"]
