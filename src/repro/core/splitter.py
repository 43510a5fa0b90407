"""Gradient splitter (Fig. 5, worker side): partition a gradient dict into
important (RS) and unimportant (ICS) halves according to the current GIB."""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.core.gib import GIB


class GradientSplitter:
    """Splits name→gradient dicts by layer membership and a GIB.

    Parameters
    ----------
    layer_params:
        Ordered mapping layer name → parameter names in that layer (from
        :meth:`Module.leaf_layers` + ``named_parameters``). Every gradient
        the splitter ever sees must belong to exactly one layer.
    """

    def __init__(self, layer_params: Mapping[str, Sequence[str]]) -> None:
        self.layer_params = {k: tuple(v) for k, v in layer_params.items()}
        self._param_to_layer: dict[str, str] = {}
        for layer, names in self.layer_params.items():
            for name in names:
                if name in self._param_to_layer:
                    raise ValueError(f"parameter {name!r} assigned to two layers")
                self._param_to_layer[name] = layer

    @property
    def layers(self) -> tuple[str, ...]:
        return tuple(self.layer_params.keys())

    def split(
        self, grads: Mapping[str, np.ndarray], gib: GIB
    ) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
        """Return ``(G_i, G_u)`` — important and unimportant gradient dicts."""
        if set(gib.layers) != set(self.layers):
            raise ValueError("GIB layers do not match splitter layers")
        important: dict[str, np.ndarray] = {}
        unimportant: dict[str, np.ndarray] = {}
        for name, g in grads.items():
            layer = self._param_to_layer.get(name)
            if layer is None:
                raise KeyError(f"gradient for unknown parameter {name!r}")
            (important if gib.is_important(layer) else unimportant)[name] = g
        return important, unimportant

    def params_of(self, layers: Sequence[str]) -> tuple[str, ...]:
        """Parameter names belonging to the given layers, in layer order."""
        out: list[str] = []
        for layer in layers:
            if layer not in self.layer_params:
                raise KeyError(f"unknown layer {layer!r}")
            out.extend(self.layer_params[layer])
        return tuple(out)

    def layer_bytes(
        self, sizes: Mapping[str, int], bytes_per_param: int = 4
    ) -> dict[str, int]:
        """Per-layer wire bytes given per-parameter element counts."""
        return {
            layer: sum(int(sizes[n]) for n in names) * bytes_per_param
            for layer, names in self.layer_params.items()
        }

    @classmethod
    def from_module(cls, module) -> "GradientSplitter":
        """Build from a Module's leaf layers (numeric mode)."""
        layer_params: dict[str, tuple[str, ...]] = {}
        # leaf_layers gives (layer_name, module); parameters of that module
        # are exactly the names prefixed by the layer name (or 'self').
        all_names = [n for n, _p in module.named_parameters()]
        for layer_name, sub in module.leaf_layers():
            own = tuple(
                n
                for n in all_names
                if n.rsplit(".", 1)[0] == layer_name
                or (layer_name == "self" and "." not in n)
            )
            layer_params[layer_name] = own
        return cls(layer_params)


__all__ = ["GradientSplitter"]
