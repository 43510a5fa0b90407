"""GIB — Gradient Importance Bitmap (paper §3.2, §4.1.1).

One bit per layer: 1 ⇒ the layer's gradients are *important* and travel in
RS; 0 ⇒ they defer to ICS. The PS builds the bitmap by ranking layers with
PGP importance and moving the least-important layers to ICS until the
deferred byte budget S(G^u) is filled; workers receive the bitmap (≤1 KB
for <1K-layer models, §4.1.2) and split their gradients accordingly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Optional, Sequence

import numpy as np


@dataclass(frozen=True)
class GIB:
    """Immutable importance bitmap over an ordered layer list.

    The RS/ICS layer tuples are computed on first read and kept: the bitmap
    is frozen, and every worker-iteration split under it reads them.
    """

    layers: tuple[str, ...]
    important: tuple[bool, ...]

    def __post_init__(self) -> None:
        if len(self.layers) != len(self.important):
            raise ValueError(
                f"{len(self.layers)} layers vs {len(self.important)} bits"
            )
        if len(set(self.layers)) != len(self.layers):
            raise ValueError("duplicate layer names")

    # -- queries ------------------------------------------------------------
    def is_important(self, layer: str) -> bool:
        try:
            return self.important[self.layers.index(layer)]
        except ValueError:
            raise KeyError(f"unknown layer {layer!r}") from None

    @cached_property
    def important_layers(self) -> tuple[str, ...]:
        return tuple(l for l, im in zip(self.layers, self.important) if im)

    @cached_property
    def unimportant_layers(self) -> tuple[str, ...]:
        return tuple(l for l, im in zip(self.layers, self.important) if not im)

    @property
    def n_important(self) -> int:
        return sum(self.important)

    def wire_bytes(self) -> int:
        """Size on the wire: one bit per layer, byte-padded (§4.1.2:
        <1 KB for models under 1K layers)."""
        return (len(self.layers) + 7) // 8

    # -- constructors --------------------------------------------------------
    @classmethod
    def all_important(cls, layers: Sequence[str]) -> "GIB":
        """Degenerate bitmap: everything in RS ⇒ OSP behaves as BSP (§4.3)."""
        layers = tuple(layers)
        return cls(layers, tuple(True for _ in layers))

    @classmethod
    def all_unimportant(cls, layers: Sequence[str]) -> "GIB":
        """Degenerate bitmap: everything in ICS ⇒ OSP behaves as ASP (§4.3)."""
        layers = tuple(layers)
        return cls(layers, tuple(False for _ in layers))

    @classmethod
    def from_importance(
        cls,
        importance: Mapping[str, float],
        layer_bytes: Mapping[str, int],
        budget_bytes: float,
        layers: Optional[Sequence[str]] = None,
    ) -> "GIB":
        """Build the bitmap from PGP scores and a deferred-byte budget.

        Layers are deferred in ascending order of **importance density**
        (``I^l`` per byte): Eq. 1–3 derive importance *per parameter*, so
        the per-byte density is the mean parameter importance of the layer
        — ranking by it avoids the knapsack pathology where many small
        slightly-less-important layers exhaust the budget and a huge
        low-importance layer (VGG's fc6) can never be deferred. A layer
        that does not fit the remaining budget is skipped (not a stopping
        point) so smaller layers behind it can still use the budget. Ties
        break by layer order for determinism.

        ``layers`` pins the bitmap's layer order — the PS↔worker shared
        state :meth:`pack`/:meth:`unpack` rely on. Pass the canonical
        splitter order; relying on the default (``importance`` insertion
        order) couples on-wire layout to whichever dict the caller built.
        """
        if set(importance) != set(layer_bytes):
            raise ValueError("importance and layer_bytes must cover the same layers")
        if not (budget_bytes >= 0):  # rejects negatives AND NaN
            raise ValueError(f"budget must be a number >= 0, got {budget_bytes}")
        if layers is None:
            layers = tuple(importance.keys())
        else:
            layers = tuple(layers)
            if len(set(layers)) != len(layers) or set(layers) != set(importance):
                raise ValueError(
                    "layers must be a duplicate-free permutation of the "
                    "importance keys"
                )

        def density(i: int) -> float:
            b = layer_bytes[layers[i]]
            return importance[layers[i]] / b if b > 0 else float("inf")

        order = sorted(range(len(layers)), key=lambda i: (density(i), i))
        important = [True] * len(layers)
        remaining = float(budget_bytes)
        for i in order:
            b = layer_bytes[layers[i]]
            if b <= remaining:
                important[i] = False
                remaining -= b
        return cls(layers, tuple(important))

    # -- serialisation ----------------------------------------------------------
    def pack(self) -> bytes:
        """Pack to the on-wire byte string (layer order is implicit shared
        state between PS and workers, as in the prototype)."""
        return np.packbits(np.array(self.important, dtype=bool)).tobytes()

    @classmethod
    def unpack(cls, payload: bytes, layers: Sequence[str]) -> "GIB":
        """Inverse of :meth:`pack` given the shared layer order.

        Strict: the payload must be exactly the byte-padded size for
        ``layers`` and the padding bits must be zero — an oversized or
        bit-dirty payload means PS and worker disagree on the layer list,
        which must fail loudly rather than silently truncate.
        """
        layers = tuple(layers)
        expected = (len(layers) + 7) // 8
        if len(payload) != expected:
            raise ValueError(
                f"payload is {len(payload)} bytes, expected {expected} "
                f"for {len(layers)} layers"
            )
        bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8))
        if bits[len(layers) :].any():
            raise ValueError("nonzero padding bits in GIB payload")
        return cls(layers, tuple(bool(b) for b in bits[: len(layers)]))


__all__ = ["GIB"]
