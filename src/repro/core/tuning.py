"""S(G^u) sizing — Eq. 5 upper bound and Algorithm 1 (paper §4.1.2).

The ICS must fit inside one iteration's computation:

    T_c ≥ N · S(G^u) / (b(1+lr))   ⇒   S(G^u) ≤ b(1+lr)·T_c/N = U_max

(the ``(1+lr)`` term reflects that lost traffic is retransmitted, consuming
budget, so a lossier link *admits less deferral*. The paper prints
``b(1+lr)·T_c/N``; taken literally a lossier link would admit more, so the
code divides by ``(1+lr)`` — the two coincide at the paper's loss rates,
see :func:`ics_upper_bound`). U_max is further capped at 80% of the model size so OSP
never fully degenerates into ASP, and the actual S(G^u) ramps from 0 toward
U_max as the loss falls:

    S(G^u)_1 = 0,  L = loss_1,  S(G^u)_i = (1 − loss_i/L) · U_max
"""

from __future__ import annotations

import math

#: Algorithm 1 line 2: U_max never exceeds this fraction of the model.
MAX_MODEL_FRACTION = 0.8


def ics_upper_bound(
    bandwidth: float,
    loss_rate: float,
    compute_time: float,
    n_workers: int,
    model_bytes: float,
    max_model_fraction: float = MAX_MODEL_FRACTION,
) -> float:
    """Eq. 5 U_max (bytes), clamped to ``max_model_fraction`` of the model.

    Parameters
    ----------
    bandwidth:
        Link bandwidth ``b`` in bytes/second (the PS-side bottleneck link).
    loss_rate:
        Route loss rate ``lr`` in [0, 1).
    compute_time:
        Per-iteration computation time ``T_c`` (seconds).
    n_workers:
        Worker count ``N`` — all N workers' ICS pushes share the PS link.
    model_bytes:
        Total model/gradient size.
    """
    if not math.isfinite(bandwidth) or bandwidth <= 0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth}")
    if not (0.0 <= loss_rate < 1.0):
        raise ValueError(f"loss_rate must be in [0,1), got {loss_rate}")
    if not math.isfinite(compute_time) or compute_time < 0:
        raise ValueError(f"compute_time must be >= 0, got {compute_time}")
    if n_workers < 1:
        raise ValueError(f"n_workers must be >= 1, got {n_workers}")
    if not math.isfinite(model_bytes) or model_bytes <= 0:
        raise ValueError(f"model_bytes must be positive, got {model_bytes}")
    if not (0.0 < max_model_fraction <= 1.0):
        raise ValueError(f"bad max_model_fraction {max_model_fraction}")
    # NOTE: the paper writes U_max = b(1+lr)T_c/N. Taken literally a lossier
    # link would admit *more* deferral; the physically consistent reading
    # (effective bytes are inflated by retransmission, Eq. 5 line 3) is
    # division. We implement the physical form and flag the discrepancy in
    # EXPERIMENTS.md; at the paper's loss rates (~0) they coincide.
    u_max = bandwidth * compute_time / (n_workers * (1.0 + loss_rate))
    return min(u_max, max_model_fraction * model_bytes)


class SGuTuner:
    """Algorithm 1: per-epoch deferred-byte budget.

    Call :meth:`budget` once per epoch with the epoch's training loss.
    Epoch 1 fixes the normaliser ``L`` and returns 0 (all-RS, i.e. BSP-like
    warm start); later epochs return ``(1 − loss_i/L) · U_max``, floored at
    0 if the loss ever exceeds ``L``.
    """

    def __init__(self, u_max: float) -> None:
        if not math.isfinite(u_max) or u_max < 0:
            raise ValueError(f"u_max must be >= 0, got {u_max}")
        self.u_max = float(u_max)
        self._initial_loss: float | None = None

    @property
    def initial_loss(self) -> float | None:
        """The normaliser L (None until the first epoch reports)."""
        return self._initial_loss

    def budget(self, epoch_loss: float) -> float:
        """Deferred-byte budget S(G^u) for the epoch with this loss.

        A NaN/inf loss (numeric divergence) must not poison the normaliser
        ``L`` or the budget — ``epoch_loss < 0`` is False for NaN, so a
        naive range check would let NaN flow into GIB construction. Such
        epochs clamp to the all-RS floor (budget 0, BSP-safe) and leave
        ``L`` untouched.
        """
        if not math.isfinite(epoch_loss):
            return 0.0
        if epoch_loss < 0:
            raise ValueError(f"loss must be >= 0, got {epoch_loss}")
        if self._initial_loss is None:
            if epoch_loss == 0:
                # Degenerate: already converged at epoch 1; defer maximally.
                self._initial_loss = 1.0
                return self.u_max
            self._initial_loss = float(epoch_loss)
            return 0.0
        frac = 1.0 - epoch_loss / self._initial_loss
        return max(0.0, frac) * self.u_max

    def set_u_max(self, u_max: float) -> None:
        """Re-derive the budget ceiling for a new worker count (Eq. 5).

        Elastic membership changes alter ``N``; the normaliser ``L`` is a
        property of the training run, not of the cluster, so it survives.
        """
        if not math.isfinite(u_max) or u_max < 0:
            raise ValueError(f"u_max must be >= 0, got {u_max}")
        self.u_max = float(u_max)

    def state(self) -> dict:
        """Serialisable tuner state (for checkpointing)."""
        return {"u_max": self.u_max, "initial_loss": self._initial_loss}

    def load_state(self, state: dict) -> None:
        """Restore state captured by :meth:`state`."""
        self.set_u_max(float(state["u_max"]))
        initial = state.get("initial_loss")
        self._initial_loss = None if initial is None else float(initial)


__all__ = ["MAX_MODEL_FRACTION", "SGuTuner", "ics_upper_bound"]
