"""Higher-level differentiable operations: conv, pooling, softmax, embedding.

All kernels are fully vectorised (im2col for convolution, stride-tricks for
pooling windows) per the HPC guide: no Python loops over batch or spatial
dimensions (conv2d loops over the ``kh*kw`` kernel taps only).
"""

from __future__ import annotations

import numpy as np

from repro.autograd.tensor import Tensor, unbroadcast


# --------------------------------------------------------------- softmax
def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    exp_sum = exp.sum(axis=axis, keepdims=True)
    out_data = shifted - np.log(exp_sum)
    softmax = exp / exp_sum

    def grad_fn(g):
        return g - softmax * g.sum(axis=axis, keepdims=True)

    return Tensor._from_op(out_data, [(x, grad_fn)], "log_softmax")


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    out_data = exp / exp.sum(axis=axis, keepdims=True)

    def grad_fn(g):
        dot = (g * out_data).sum(axis=axis, keepdims=True)
        return out_data * (g - dot)

    return Tensor._from_op(out_data, [(x, grad_fn)], "softmax")


# --------------------------------------------------------------- scatter-add
def _scatter_add(shape, flat_index: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``out = zeros(shape); out.ravel()[flat_index] += values`` via
    ``np.bincount``.

    Both ``np.add.at`` and ``np.bincount`` accumulate strictly in input
    order, so per target element the additions happen in the same sequence
    and the result is bit-identical — but bincount skips ufunc buffered-
    indexing machinery and is ~8x faster. Used by the embedding and strided
    max-pool backward passes, whose targets really are data-dependent.
    """
    values = np.ascontiguousarray(values)
    if values.dtype != np.float64:
        # bincount weights are float64-only; add.at is the general fallback
        out = np.zeros(shape, dtype=values.dtype)
        np.add.at(out.reshape(-1), flat_index.reshape(-1), values.reshape(-1))
        return out
    size = 1
    for s in shape:
        size *= s
    return np.bincount(
        flat_index.reshape(-1), weights=values.reshape(-1), minlength=size
    ).reshape(shape)


# --------------------------------------------------------------- embedding
def embedding(weight: Tensor, indices: np.ndarray) -> Tensor:
    """Row-gather ``weight[indices]`` with scatter-add backward."""
    indices = np.asarray(indices)
    if not np.issubdtype(indices.dtype, np.integer):
        raise TypeError(f"indices must be integers, got {indices.dtype}")
    out_data = weight.data[indices]

    def grad_fn(g):
        dim = weight.data.shape[-1]
        rows = indices
        if rows.min(initial=0) < 0:  # wrap negative row indices like add.at
            rows = np.where(rows < 0, rows + weight.data.shape[0], rows)
        flat = rows[..., None] * dim + np.arange(dim)
        return _scatter_add(weight.data.shape, flat, np.asarray(g))

    return Tensor._from_op(out_data, [(weight, grad_fn)], "embedding")


# --------------------------------------------------------------- im2col conv
def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """2-D convolution (NCHW) via im2col.

    ``x``: (N, C_in, H, W); ``weight``: (C_out, C_in, KH, KW);
    ``bias``: (C_out,) or None.

    Output, ``dx`` and ``dw`` carry the bits (and the output the NHWC
    memory layout) of the index-based reference in
    ``tests/autograd/test_conv_reference.py``, except when
    ``F = C_in*KH*KW == 1`` with ``C_out > 1``: there the reference's einsum
    special-cases a broadcast multiply (C-contiguous output, ``dx`` a few ulp
    off); this function keeps its one layout. No model card has ``F == 1``.
    """
    n, c_in, h, w = x.shape
    c_out, c_in_w, kh, kw = weight.shape
    if c_in != c_in_w:
        raise ValueError(f"channel mismatch: input {c_in}, weight {c_in_w}")
    hp, wp = h + 2 * padding, w + 2 * padding
    if hp < kh or wp < kw:
        raise ValueError(f"kernel {kh}x{kw} larger than padded input {hp}x{wp}")
    # Output size floors (PyTorch semantics): trailing rows/cols that do not
    # fit a full window are never read.
    out_h = (hp - kh) // stride + 1
    out_w = (wp - kw) // stride + 1
    n_cols = n * out_h * out_w

    if padding:
        x_padded = np.zeros((n, c_in, hp, wp), dtype=x.data.dtype)
        x_padded[:, :, padding:-padding, padding:-padding] = x.data
    else:
        x_padded = x.data

    def windows(a, ki, kj):
        """The (N, C, out_h, out_w) strided view of ``a`` that kernel tap
        ``(ki, kj)`` reads, as (C, N, out_h, out_w)."""
        rows = slice(ki, ki + stride * (out_h - 1) + 1, stride)
        return a[:, :, rows, kj : kj + stride * (out_w - 1) + 1 : stride].transpose(1, 0, 2, 3)

    # Column matrix in (F, N, P) C order, F = (c, ki, kj): one strided-slice
    # copy per kernel tap, no index arrays.
    taps_shape = (c_in, kh, kw, n, out_h, out_w)
    cols = np.empty(taps_shape, dtype=x.data.dtype)
    for ki in range(kh):
        for kj in range(kw):
            cols[:, ki, kj] = windows(x_padded, ki, kj)
    cols2d = cols.reshape(c_in * kh * kw, n_cols)  # (F, N*P)
    w_row = weight.data.reshape(c_out, c_in * kh * kw)  # (C_out, F)

    # (N*P, F) @ (F, C_out): the result is NHWC in memory and is handed on
    # as an NCHW *view*. Downstream reductions (batch-norm mean/var) iterate
    # in memory order, so this layout is part of the bit-level contract, as
    # is the operand order of all three matmuls (docs/performance.md).
    out = np.matmul(cols2d.T, w_row.T)
    out_data = out.reshape(n, out_h, out_w, c_out).transpose(0, 3, 1, 2)
    if bias is not None:
        out_data = out_data + bias.data.reshape(1, c_out, 1, 1)

    def grad_x(g):
        g2 = g.transpose(1, 0, 2, 3).reshape(c_out, n_cols)  # (C_out, N*P)
        dcols = np.matmul(w_row.T, g2).reshape(taps_shape)  # (F, N*P), C order
        # col2im: taps accumulate in increasing (ki, kj) order -- per element
        # the same addition sequence an in-order scatter-add performs.
        dx_padded = np.zeros((n, c_in, hp, wp), dtype=dcols.dtype)
        for ki in range(kh):
            for kj in range(kw):
                tap = windows(dx_padded, ki, kj)
                tap += dcols[:, ki, kj]
        if padding:
            return dx_padded[:, :, padding:-padding, padding:-padding]
        return dx_padded

    def grad_w(g):
        g2 = g.transpose(0, 2, 3, 1).reshape(n_cols, c_out)  # (N*P, C_out)
        return np.matmul(cols2d, g2).T.reshape(weight.shape)

    parents = [(x, grad_x), (weight, grad_w)]
    if bias is not None:
        parents.append((bias, lambda g: g.sum(axis=(0, 2, 3))))
    return Tensor._from_op(out_data, parents, "conv2d")


# --------------------------------------------------------------- pooling
def max_pool2d(x: Tensor, kernel: int = 2, stride: int | None = None) -> Tensor:
    """Max pooling (NCHW) with non-overlapping or strided windows."""
    stride = stride or kernel
    n, c, h, w = x.shape
    if (h - kernel) % stride or (w - kernel) % stride:
        raise ValueError(
            f"pool geometry does not divide: {h}x{w}, kernel {kernel}, stride {stride}"
        )
    out_h = (h - kernel) // stride + 1
    out_w = (w - kernel) // stride + 1

    if stride == kernel and h % kernel == 0 and w % kernel == 0:
        # Fast path: reshape into blocks.
        blocks = x.data.reshape(n, c, out_h, kernel, out_w, kernel)
        out_data = blocks.max(axis=(3, 5))

        def grad_fn(g):
            expanded = out_data[:, :, :, None, :, None]
            mask = blocks == expanded
            # Distribute among ties equally (rare with float activations).
            counts = mask.sum(axis=(3, 5), keepdims=True)
            g_exp = g[:, :, :, None, :, None] / counts
            return (mask * g_exp).reshape(n, c, h, w)

        return Tensor._from_op(out_data, [(x, grad_fn)], "max_pool2d")

    # General strided path via as_strided views.
    s = x.data.strides
    windows = np.lib.stride_tricks.as_strided(
        x.data,
        shape=(n, c, out_h, out_w, kernel, kernel),
        strides=(s[0], s[1], s[2] * stride, s[3] * stride, s[2], s[3]),
        writeable=False,
    )
    out_data = windows.max(axis=(4, 5))

    def grad_fn_strided(g):
        flat = windows.reshape(n, c, out_h, out_w, -1)
        arg = flat.argmax(axis=-1)
        ky, kx = np.unravel_index(arg, (kernel, kernel))
        oy = np.arange(out_h)[None, None, :, None]
        ox = np.arange(out_w)[None, None, None, :]
        iy = oy * stride + ky
        ix = ox * stride + kx
        nn = np.arange(n)[:, None, None, None]
        cc = np.arange(c)[None, :, None, None]
        idx = ((nn * c + cc) * h + iy) * w + ix
        return _scatter_add(x.data.shape, idx, np.broadcast_to(g, idx.shape))

    return Tensor._from_op(out_data, [(x, grad_fn_strided)], "max_pool2d")


def global_avg_pool2d(x: Tensor) -> Tensor:
    """Mean over spatial dims: (N, C, H, W) -> (N, C)."""
    return x.mean(axis=(2, 3))


__all__ = [
    "conv2d",
    "embedding",
    "global_avg_pool2d",
    "log_softmax",
    "max_pool2d",
    "softmax",
]
