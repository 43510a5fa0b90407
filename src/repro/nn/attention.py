"""Self-attention and transformer blocks for the TinyBERT workload."""

from __future__ import annotations

import numpy as np

from repro.autograd import functional as F
from repro.autograd.tensor import Tensor
from repro.nn.layers import GELU, LayerNorm, Linear
from repro.nn.module import Module

#: Hidden width of the MLP, as a multiple of the model width (BERT's 4).
MLP_RATIO = 4


class MultiHeadSelfAttention(Module):
    """Standard multi-head self-attention (no mask; full bidirectional as in
    BERT encoders).

    Input/output: (batch, seq, dim).
    """

    def __init__(self, dim: int, n_heads: int, rng: np.random.Generator) -> None:
        super().__init__()
        if dim % n_heads:
            raise ValueError(f"dim {dim} not divisible by n_heads {n_heads}")
        self.dim = dim
        self.n_heads = n_heads
        self.head_dim = dim // n_heads
        self.q_proj = Linear(dim, dim, rng)
        self.k_proj = Linear(dim, dim, rng)
        self.v_proj = Linear(dim, dim, rng)
        self.out_proj = Linear(dim, dim, rng)

    def _split_heads(self, x: Tensor, batch: int, seq: int) -> Tensor:
        # (B, S, D) -> (B, H, S, Dh)
        return x.reshape(batch, seq, self.n_heads, self.head_dim).transpose(0, 2, 1, 3)

    def forward(self, x: Tensor) -> Tensor:
        batch, seq, dim = x.shape
        if dim != self.dim:
            raise ValueError(f"expected dim {self.dim}, got {dim}")
        q = self._split_heads(self.q_proj(x), batch, seq)
        k = self._split_heads(self.k_proj(x), batch, seq)
        v = self._split_heads(self.v_proj(x), batch, seq)
        scores = (q @ k.transpose(0, 1, 3, 2)) * (1.0 / np.sqrt(self.head_dim))
        attn = F.softmax(scores, axis=-1)
        ctx = attn @ v  # (B, H, S, Dh)
        merged = ctx.transpose(0, 2, 1, 3).reshape(batch, seq, dim)
        return self.out_proj(merged)


class TransformerBlock(Module):
    """Pre-norm transformer encoder block: LN → MHSA → residual, LN → MLP →
    residual."""

    def __init__(self, dim: int, n_heads: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.ln1 = LayerNorm(dim)
        self.attn = MultiHeadSelfAttention(dim, n_heads, rng)
        self.ln2 = LayerNorm(dim)
        self.fc1 = Linear(dim, dim * MLP_RATIO, rng)
        self.act = GELU()
        self.fc2 = Linear(dim * MLP_RATIO, dim, rng)

    def forward(self, x: Tensor) -> Tensor:
        x = x + self.attn(self.ln1(x))
        return x + self.fc2(self.act(self.fc1(self.ln2(x))))


__all__ = ["MultiHeadSelfAttention", "TransformerBlock"]
