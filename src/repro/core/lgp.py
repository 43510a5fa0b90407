"""LGP — Local-Gradient-based Parameter correction (paper §4.2).

While a worker's unimportant gradients are still in flight (ICS), the
worker must not train on stale unimportant parameters. LGP:

* **Eq. 6 (at RS end)** — build ``P_partial``: important parameters take
  the freshly synchronized global values; unimportant parameters are
  advanced with the worker's *local* gradient as a prediction of the global
  aggregate.
* **Eq. 7 (when ICS delivers)** — replace the local prediction with the
  global result: subtract the locally-applied gradient, add the global
  one. Since the prediction started from the same base as the PS's update,
  this is exactly "overwrite unimportant parameters with the PS's values",
  which is how we implement it (robust to multi-iteration ICS lag: any
  number of stacked local predictions is undone by one overwrite).

EMA-LGP (§4.2) predicts with an exponential moving average of past global
gradients blended with the current local gradient. The paper found it adds
compute/memory overhead without accuracy gains and omitted it from OSP; we
implement it as an ablation (see ``bench_ablation_lgp``).
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.bounds import POSITIVE, Bound, check_bounds


class LGPCorrector:
    """Applies Eq. 6 / Eq. 7 to a worker's live parameter arrays.

    Parameters
    ----------
    params:
        Name → ndarray mapping of the worker replica's parameters. Arrays
        are mutated in place.
    """

    def __init__(self, params: Mapping[str, np.ndarray]) -> None:
        self.params = dict(params)

    def apply_rs(
        self,
        important_global: Mapping[str, np.ndarray],
        unimportant_local_grads: Mapping[str, np.ndarray],
        lr: float,
    ) -> None:
        """Eq. 6: adopt global important params; locally predict the rest."""
        if lr <= 0:
            raise ValueError(f"lr must be positive, got {lr}")
        for name, value in important_global.items():
            self._get(name)[...] = value
        for name, grad in unimportant_local_grads.items():
            self._get(name)[...] -= lr * self._predict(name, grad)

    def apply_ics(self, unimportant_global: Mapping[str, np.ndarray]) -> None:
        """Eq. 7: replace local predictions with the global result."""
        for name, value in unimportant_global.items():
            self._get(name)[...] = value
            self._on_global(name, value)

    # -- hooks for the EMA variant ------------------------------------------
    def _predict(self, name: str, local_grad: np.ndarray) -> np.ndarray:
        return local_grad

    def _on_global(self, name: str, value: np.ndarray) -> None:
        pass

    def _get(self, name: str) -> np.ndarray:
        try:
            return self.params[name]
        except KeyError:
            raise KeyError(f"LGP: unknown parameter {name!r}") from None


class EMALGPCorrector(LGPCorrector):
    """EMA-LGP: predict with a blend of the global-gradient EMA and the
    current local gradient.

    ``prediction = beta · EMA(global grads) + (1 − beta) · g_local``

    The EMA is updated from the *observed global parameter deltas* at each
    Eq. 7 correction (the worker never sees raw global gradients, only
    parameter values, so it reconstructs the effective gradient from the
    value it predicted vs. what arrived).
    """

    BOUNDS = {"beta": Bound(0, 1, ends="[]"), "decay": Bound(0, 1), "lr_hint": POSITIVE}

    def __init__(
        self,
        params: Mapping[str, np.ndarray],
        beta: float = 0.5,
        decay: float = 0.9,
        lr_hint: float = 0.1,
    ) -> None:
        super().__init__(params)
        self.beta = beta
        self.decay = decay
        self.lr_hint = lr_hint
        check_bounds(self)
        self._ema: dict[str, np.ndarray] = {}
        self._pre_correction: dict[str, np.ndarray] = {}

    def apply_ics(self, unimportant_global: Mapping[str, np.ndarray]) -> None:
        # Snapshot current (predicted) values to reconstruct global deltas.
        self._pre_correction = {
            name: self._get(name).copy() for name in unimportant_global
        }
        super().apply_ics(unimportant_global)

    def _predict(self, name: str, local_grad: np.ndarray) -> np.ndarray:
        ema = self._ema.get(name)
        if ema is None:
            return local_grad
        return self.beta * ema + (1.0 - self.beta) * local_grad

    def _on_global(self, name: str, value: np.ndarray) -> None:
        prev = self._pre_correction.get(name)
        if prev is None:
            return
        # effective global gradient ≈ (predicted_value − global_value)/lr
        implied = (prev - value) / self.lr_hint
        ema = self._ema.get(name)
        if ema is None:
            self._ema[name] = implied
        else:
            ema *= self.decay
            ema += (1.0 - self.decay) * implied

    @property
    def memory_overhead_bytes(self) -> int:
        """Extra worker memory EMA-LGP carries (the §4.2 objection)."""
        return sum(a.nbytes for a in self._ema.values())


__all__ = ["EMALGPCorrector", "LGPCorrector"]
