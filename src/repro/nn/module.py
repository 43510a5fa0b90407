"""Module base class with ordered parameter/submodule registries.

Registration is insertion-ordered (plain dicts), so ``named_parameters()``
and ``leaf_layers()`` yield a stable order across runs — required for the
bit positions of OSP's GIB to mean the same thing on every worker and the
PS.
"""

from __future__ import annotations

from typing import Iterator, Mapping

import numpy as np

from repro.autograd.tensor import Tensor


class Parameter(Tensor):
    """A Tensor registered as a trainable parameter of a Module."""

    def __init__(self, data) -> None:
        super().__init__(data, requires_grad=True)


class Module:
    """Base class for layers and models.

    Subclasses assign :class:`Parameter` and :class:`Module` instances as
    attributes; they are auto-registered. Define :meth:`forward`.
    """

    def __init__(self) -> None:
        object.__setattr__(self, "_params", {})
        object.__setattr__(self, "_modules", {})
        object.__setattr__(self, "training", True)

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._params[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    # -- forward -----------------------------------------------------------
    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError(f"{type(self).__name__} must define forward()")

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    # -- parameter access ----------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        """Yield ``(qualified_name, parameter)`` in registration order."""
        for name, p in self._params.items():
            yield (f"{prefix}{name}", p)
        for mod_name, mod in self._modules.items():
            yield from mod.named_parameters(prefix=f"{prefix}{mod_name}.")

    def parameters(self) -> list[Parameter]:
        """All parameters in registration order."""
        return [p for _name, p in self.named_parameters()]

    def num_parameters(self) -> int:
        """Total scalar parameter count."""
        return sum(p.size for p in self.parameters())

    def leaf_layers(self, prefix: str = "") -> list[tuple[str, "Module"]]:
        """Ordered list of (name, module) for modules that *directly own*
        parameters — the paper's "layer" granularity for PGP/GIB (Eq. 4)."""
        layers: list[tuple[str, Module]] = []
        if self._params:
            layers.append((prefix.rstrip(".") or "self", self))
        for mod_name, mod in self._modules.items():
            layers.extend(mod.leaf_layers(prefix=f"{prefix}{mod_name}."))
        return layers

    def zero_grad(self) -> None:
        """Clear gradients of all parameters."""
        for p in self.parameters():
            p.zero_grad()

    # -- train/eval -----------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        """Set training mode recursively (affects batchnorm)."""
        object.__setattr__(self, "training", bool(mode))
        for mod in self._modules.values():
            mod.train(mode)
        return self

    def eval(self) -> "Module":
        """Set evaluation mode recursively."""
        return self.train(False)

    # -- state dict -------------------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        """Copy of all parameters as plain arrays, keyed by qualified name."""
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: Mapping[str, np.ndarray]) -> None:
        """Load parameters in-place; names and shapes must match exactly."""
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        extra = set(state) - set(own)
        if missing or extra:
            raise KeyError(f"state mismatch: missing={sorted(missing)}, extra={sorted(extra)}")
        for name, p in own.items():
            arr = np.asarray(state[name], dtype=p.data.dtype)
            if arr.shape != p.data.shape:
                raise ValueError(
                    f"shape mismatch for {name}: expected {p.data.shape}, got {arr.shape}"
                )
            p.data[...] = arr

    def __repr__(self) -> str:
        return f"{type(self).__name__}(params={self.num_parameters()})"


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self._seq = []
        for i, mod in enumerate(modules):
            if not isinstance(mod, Module):
                raise TypeError(f"Sequential item {i} is not a Module: {mod!r}")
            setattr(self, f"m{i}", mod)
            self._seq.append(mod)

    def forward(self, x):
        for mod in self._seq:
            x = mod(x)
        return x

    def __len__(self) -> int:
        return len(self._seq)

    def __getitem__(self, i: int) -> Module:
        return self._seq[i]


__all__ = ["Module", "Parameter", "Sequential"]
