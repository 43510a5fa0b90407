"""Numerical gradient checking (central differences)."""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.autograd.tensor import Tensor


def grad_check(
    fn: Callable[..., Tensor],
    inputs: Sequence[Tensor],
    rtol: float = 1e-4,
    atol: float = 1e-6,
) -> bool:
    """Verify analytic gradients of ``fn`` against central differences.

    ``fn`` must map the given input tensors to a scalar Tensor. Raises
    ``AssertionError`` with a diagnostic on mismatch; returns True on
    success.

    Inputs should be float64 for the tolerances to be meaningful.
    """
    eps = 1e-6  # the central-difference step
    inputs = list(inputs)
    for t in inputs:
        if not t.requires_grad:
            raise ValueError("all inputs to grad_check must require grad")
        t.zero_grad()

    out = fn(*inputs)
    if out.size != 1:
        raise ValueError(f"fn must return a scalar, got shape {out.shape}")
    out.backward()

    for idx, t in enumerate(inputs):
        analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
        numeric = np.zeros_like(t.data)
        flat = t.data.reshape(-1)
        num_flat = numeric.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            plus = fn(*inputs).item()
            flat[i] = orig - eps
            minus = fn(*inputs).item()
            flat[i] = orig
            num_flat[i] = (plus - minus) / (2 * eps)
        if not np.allclose(analytic, numeric, rtol=rtol, atol=atol):
            worst = np.abs(analytic - numeric).max()
            raise AssertionError(
                f"gradient mismatch on input {idx}: max abs error {worst:.3e}\n"
                f"analytic:\n{analytic}\nnumeric:\n{numeric}"
            )
    return True


__all__ = ["grad_check"]
