"""Unit + gradcheck tests for functional ops (conv, pool, softmax, ...)."""

import numpy as np
import pytest

from repro.autograd import Tensor, functional as F, grad_check


def t(data):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=True)


def rand(shape, seed=0, scale=1.0):
    return t(np.random.default_rng(seed).normal(size=shape) * scale)


# -------------------------------------------------------------- softmax
def test_softmax_rows_sum_to_one():
    x = rand((4, 7))
    s = F.softmax(x)
    assert np.allclose(s.data.sum(axis=-1), 1.0)


def test_log_softmax_matches_log_of_softmax():
    x = rand((3, 5))
    assert np.allclose(F.log_softmax(x).data, np.log(F.softmax(x).data))


def test_softmax_invariant_to_shift():
    x = rand((2, 4))
    shifted = Tensor(x.data + 100.0, requires_grad=True)
    assert np.allclose(F.softmax(x).data, F.softmax(shifted).data)


def test_softmax_gradcheck():
    x = rand((2, 3), seed=1)
    grad_check(lambda a: (F.softmax(a) * Tensor(np.arange(6.0).reshape(2, 3))).sum(), [x])


def test_log_softmax_gradcheck():
    x = rand((2, 4), seed=2)
    w = Tensor(np.random.default_rng(3).normal(size=(2, 4)))
    grad_check(lambda a: (F.log_softmax(a) * w).sum(), [x])


def test_softmax_extreme_values_no_overflow():
    x = Tensor(np.array([[1000.0, 0.0], [-1000.0, 0.0]]), requires_grad=True)
    s = F.softmax(x)
    assert np.all(np.isfinite(s.data))


# -------------------------------------------------------------- embedding
def test_embedding_gathers_rows():
    w = t(np.arange(12, dtype=float).reshape(4, 3))
    out = F.embedding(w, np.array([1, 3]))
    assert np.allclose(out.data, [[3, 4, 5], [9, 10, 11]])


def test_embedding_backward_scatter_adds():
    w = t(np.zeros((4, 2)))
    F.embedding(w, np.array([0, 0, 2])).sum().backward()
    assert np.allclose(w.grad, [[2, 2], [0, 0], [1, 1], [0, 0]])


def test_embedding_rejects_float_indices():
    w = t(np.zeros((4, 2)))
    with pytest.raises(TypeError):
        F.embedding(w, np.array([0.5]))


def test_embedding_2d_indices():
    w = t(np.arange(8, dtype=float).reshape(4, 2))
    out = F.embedding(w, np.array([[0, 1], [2, 3]]))
    assert out.shape == (2, 2, 2)


# -------------------------------------------------------------- conv2d
def test_conv2d_output_shape():
    x = rand((2, 3, 8, 8))
    w = rand((5, 3, 3, 3), seed=1)
    b = rand((5,), seed=2)
    out = F.conv2d(x, w, b, stride=1, padding=1)
    assert out.shape == (2, 5, 8, 8)


def test_conv2d_stride_and_padding_shapes():
    x = rand((1, 1, 8, 8))
    w = rand((2, 1, 2, 2), seed=1)
    assert F.conv2d(x, w, stride=2).shape == (1, 2, 4, 4)


def test_conv2d_known_values_identity_kernel():
    x = t(np.arange(16, dtype=float).reshape(1, 1, 4, 4))
    w = t(np.zeros((1, 1, 3, 3)))
    w.data[0, 0, 1, 1] = 1.0  # identity kernel
    out = F.conv2d(x, w, padding=1)
    assert np.allclose(out.data, x.data)


def test_conv2d_channel_mismatch_raises():
    with pytest.raises(ValueError):
        F.conv2d(rand((1, 3, 4, 4)), rand((1, 2, 3, 3)))


def test_conv2d_floors_output_like_pytorch():
    # input 5, kernel 2, stride 2 -> out = floor((5-2)/2)+1 = 2
    out = F.conv2d(rand((1, 1, 5, 5)), rand((1, 1, 2, 2), seed=1), stride=2)
    assert out.shape == (1, 1, 2, 2)


def test_conv2d_kernel_too_large_raises():
    with pytest.raises(ValueError):
        F.conv2d(rand((1, 1, 2, 2)), rand((1, 1, 5, 5), seed=1))


def test_conv2d_gradcheck_small():
    x = rand((1, 2, 4, 4), seed=4, scale=0.5)
    w = rand((3, 2, 3, 3), seed=5, scale=0.5)
    b = rand((3,), seed=6)
    grad_check(lambda a, ww, bb: F.conv2d(a, ww, bb, padding=1).sum(), [x, w, b])


def test_conv2d_gradcheck_strided():
    x = rand((1, 1, 6, 6), seed=7, scale=0.5)
    w = rand((2, 1, 2, 2), seed=8, scale=0.5)
    grad_check(lambda a, ww: (F.conv2d(a, ww, stride=2) ** 2).sum(), [x, w])


def test_conv2d_matches_direct_correlation():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(1, 1, 6, 6))
    w = rng.normal(size=(1, 1, 3, 3))
    ours = F.conv2d(Tensor(x), Tensor(w)).data[0, 0]
    ref = np.zeros((4, 4))
    for i in range(4):
        for j in range(4):
            ref[i, j] = np.sum(x[0, 0, i:i + 3, j:j + 3] * w[0, 0])
    assert np.allclose(ours, ref)


# -------------------------------------------------------------- pooling
def test_max_pool2d_values():
    x = t(np.arange(16, dtype=float).reshape(1, 1, 4, 4))
    out = F.max_pool2d(x, kernel=2)
    assert np.allclose(out.data[0, 0], [[5, 7], [13, 15]])


def test_max_pool2d_backward_routes_to_max():
    x = t(np.arange(16, dtype=float).reshape(1, 1, 4, 4))
    F.max_pool2d(x, kernel=2).sum().backward()
    expected = np.zeros((4, 4))
    expected[1, 1] = expected[1, 3] = expected[3, 1] = expected[3, 3] = 1
    assert np.allclose(x.grad[0, 0], expected)


def test_max_pool2d_strided_path():
    x = rand((1, 1, 5, 5), seed=10)
    out = F.max_pool2d(x, kernel=3, stride=2)
    assert out.shape == (1, 1, 2, 2)


def test_max_pool2d_strided_gradcheck():
    x = rand((1, 1, 5, 5), seed=11, scale=0.5)
    grad_check(lambda a: (F.max_pool2d(a, kernel=3, stride=2) ** 2).sum(), [x])


def test_max_pool2d_bad_geometry():
    with pytest.raises(ValueError):
        F.max_pool2d(rand((1, 1, 5, 5)), kernel=2)


def test_global_avg_pool2d():
    x = rand((2, 3, 4, 4))
    out = F.global_avg_pool2d(x)
    assert out.shape == (2, 3)
    assert np.allclose(out.data, x.data.mean(axis=(2, 3)))
