"""Stochastic gradient descent with momentum and weight decay.

Also exposes :meth:`SGD.step_with_grads` which applies an *external*
gradient dict (by parameter name) instead of the tape's ``.grad`` — the
distributed trainer uses this to apply PS-aggregated gradients, OSP partial
updates (Eq. 6) and LGP corrections (Eq. 7) through one code path.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.bounds import NON_NEGATIVE, POSITIVE, Bound, check_bounds
from repro.nn.module import Module


class SGD:
    """SGD over a module's named parameters.

    Parameters
    ----------
    module:
        Model whose parameters to update.
    lr:
        Learning rate (mutable; schedulers assign it).
    momentum:
        Momentum coefficient (0 disables).
    weight_decay:
        L2 coefficient added to gradients.
    """

    BOUNDS = {"lr": POSITIVE, "momentum": Bound(0, 1), "weight_decay": NON_NEGATIVE}

    def __init__(
        self,
        module: Module,
        lr: float = 0.1,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ) -> None:
        self.module = module
        self.lr, self.momentum, self.weight_decay = lr, momentum, weight_decay
        check_bounds(self)
        # Python floats: a numpy scalar would promote float32 updates to float64.
        self.lr, self.momentum, self.weight_decay = float(lr), float(momentum), float(weight_decay)
        self._params = dict(module.named_parameters())
        #: momentum buffer per parameter name; a name appears at its first
        #: momentum step (an absent buffer is all zeros).
        self.velocity: dict[str, np.ndarray] = {}

    def zero_grad(self) -> None:
        """Clear all parameter gradients."""
        self.module.zero_grad()

    def step(self) -> None:
        """Apply one update from the tape's accumulated ``.grad``s."""
        grads = {
            name: p.grad for name, p in self._params.items() if p.grad is not None
        }
        if not grads:
            raise RuntimeError("step() with no gradients; call backward() first")
        self.step_with_grads(grads)

    def step_with_grads(self, grads: Mapping[str, np.ndarray]) -> None:
        """Apply one update from an explicit name→gradient mapping.

        Unknown names are rejected; parameters absent from ``grads`` are
        left untouched (this is how OSP updates only the important subset
        at the RS boundary).
        """
        unknown = set(grads) - set(self._params)
        if unknown:
            raise KeyError(f"gradients for unknown parameters: {sorted(unknown)}")
        for name, grad in grads.items():
            p = self._params[name]
            g = np.asarray(grad, dtype=p.data.dtype)
            if g.shape != p.data.shape:
                raise ValueError(
                    f"gradient shape {g.shape} != parameter {name} shape {p.data.shape}"
                )
            if self.weight_decay:
                g = g + self.weight_decay * p.data
            if self.momentum:
                v = self.velocity.get(name)
                if v is None:
                    v = self.velocity[name] = np.zeros_like(p.data)
                np.multiply(v, self.momentum, out=v)
                v += g
                g = v
            p.data -= self.lr * g

    def gradient_dict(self) -> dict[str, np.ndarray]:
        """Copy the current tape gradients keyed by parameter name."""
        return {
            name: p.grad.copy()
            for name, p in self._params.items()
            if p.grad is not None
        }


__all__ = ["SGD"]
