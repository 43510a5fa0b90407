"""Plane layout: the byte order of a checkpoint's numeric planes.

A *plane* is one 1-D float buffer covering every parameter of the model:
layers in ``GradientSplitter.layer_params`` order, the parameters of a layer
in their listed order, each raveled in C order. ``ps/params``,
``ps/velocity``, ``ps/aggregate`` and every ``replica/{w}`` entry of a
checkpoint share this one layout. The rest of the simulator holds plain
name→array dicts; this module is the only place that maps between the two.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from repro.autograd.tensor import DEFAULT_DTYPE


class PlaneLayout:
    """Name→slice map over one plane, in layer order."""

    def __init__(
        self, layer_params: Mapping[str, Sequence[str]], shapes: Mapping[str, tuple]
    ) -> None:
        self.shapes: dict[str, tuple] = {}
        self.slices: dict[str, slice] = {}
        offset = 0
        for names in layer_params.values():
            for name in names:
                self.shapes[name] = tuple(shapes[name])
                size = int(np.prod(self.shapes[name], dtype=np.int64))
                self.slices[name] = slice(offset, offset + size)
                offset += size
        self.size = offset

    @classmethod
    def of(cls, engine, ps) -> "PlaneLayout":
        """Layout of a numeric run's model (its engine's layers, its PS's shapes)."""
        shapes = {name: arr.shape for name, arr in ps.snapshot(copy=False).items()}
        return cls(engine.splitter.layer_params, shapes)

    def fingerprint(self) -> dict:
        """Names and element counts in plane order; kept in the metadata so a
        restore can refuse a checkpoint written for another model."""
        sizes = [sl.stop - sl.start for sl in self.slices.values()]
        return {"names": list(self.slices), "sizes": sizes}

    def pack(self, arrays: Mapping[str, np.ndarray]) -> np.ndarray:
        """Fresh plane holding ``arrays``; names absent from it stay zero."""
        plane = np.zeros(self.size, dtype=DEFAULT_DTYPE)
        for name, arr in arrays.items():
            plane[self.slices[name]] = np.asarray(arr).ravel()
        return plane

    def unpack(self, plane: np.ndarray, names: Optional[Iterable[str]] = None) -> dict:
        """Shaped copies of the plane's slices: every name, or just ``names``."""
        return {
            name: plane[self.slices[name]].reshape(self.shapes[name]).copy()
            for name in (self.slices if names is None else names)
        }

    def unpack_into(self, plane: np.ndarray, target: Mapping[str, np.ndarray]) -> None:
        """Overwrite the existing arrays in ``target`` from the plane, in place."""
        for name, arr in target.items():
            arr[...] = plane[self.slices[name]].reshape(self.shapes[name])


__all__ = ["PlaneLayout"]
