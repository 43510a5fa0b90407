"""Unit tests for the Tensor core: arithmetic, broadcasting, backward."""

import numpy as np
import pytest

from repro.autograd import Tensor, no_grad
from repro.autograd.tensor import concatenate, stack, unbroadcast


def t(data, rg=True):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=rg)


def test_add_backward():
    a, b = t([1.0, 2.0]), t([3.0, 4.0])
    (a + b).sum().backward()
    assert np.allclose(a.grad, [1, 1])
    assert np.allclose(b.grad, [1, 1])


def test_mul_backward():
    a, b = t([2.0, 3.0]), t([5.0, 7.0])
    (a * b).sum().backward()
    assert np.allclose(a.grad, [5, 7])
    assert np.allclose(b.grad, [2, 3])


def test_sub_and_neg():
    a, b = t([5.0]), t([3.0])
    (a - b).sum().backward()
    assert np.allclose(a.grad, [1])
    assert np.allclose(b.grad, [-1])


def test_div_backward():
    a, b = t([6.0]), t([2.0])
    (a / b).sum().backward()
    assert np.allclose(a.grad, [0.5])
    assert np.allclose(b.grad, [-1.5])


def test_pow_backward():
    a = t([3.0])
    (a**2).sum().backward()
    assert np.allclose(a.grad, [6.0])


def test_scalar_mixed_ops():
    a = t([2.0])
    y = (2 * a + 1 - a / 2) ** 2
    y.sum().backward()
    # y = (1.5a + 1)^2, dy/da = 2(1.5a+1)*1.5 = 2*4*1.5 = 12
    assert np.allclose(a.grad, [12.0])


def test_matmul_backward():
    a = t(np.arange(6, dtype=float).reshape(2, 3))
    b = t(np.arange(12, dtype=float).reshape(3, 4))
    (a @ b).sum().backward()
    assert np.allclose(a.grad, b.data.sum(axis=1, keepdims=True).T.repeat(2, 0).reshape(2, 3))
    assert np.allclose(b.grad, a.data.sum(axis=0)[:, None].repeat(4, 1))


def test_batched_matmul_backward():
    a = t(np.random.default_rng(0).normal(size=(5, 2, 3)))
    b = t(np.random.default_rng(1).normal(size=(5, 3, 4)))
    (a @ b).sum().backward()
    assert a.grad.shape == (5, 2, 3)
    assert b.grad.shape == (5, 3, 4)


def test_broadcast_add_reduces_grad():
    a = t(np.zeros((4, 3)))
    bias = t(np.zeros(3))
    (a + bias).sum().backward()
    assert np.allclose(bias.grad, [4, 4, 4])


def test_broadcast_mul_row_and_col():
    a = t(np.ones((2, 3)))
    col = t(np.ones((2, 1)))
    (a * col).sum().backward()
    assert np.allclose(col.grad, [[3], [3]])


def test_unbroadcast_identity():
    g = np.ones((2, 3))
    assert unbroadcast(g, (2, 3)) is g


def test_grad_accumulates_across_backwards():
    a = t([1.0])
    (a * 2).sum().backward()
    (a * 3).sum().backward()
    assert np.allclose(a.grad, [5.0])


def test_zero_grad():
    a = t([1.0])
    (a * 2).sum().backward()
    a.zero_grad()
    assert a.grad is None


def test_diamond_graph_accumulates_once_per_path():
    a = t([2.0])
    b = a * 3
    c = a * 4
    (b + c).sum().backward()
    assert np.allclose(a.grad, [7.0])


def test_reused_tensor_in_one_expression():
    a = t([3.0])
    (a * a).sum().backward()
    assert np.allclose(a.grad, [6.0])


def test_backward_requires_scalar_without_grad_arg():
    a = t([[1.0, 2.0]])
    with pytest.raises(RuntimeError):
        (a * 2).backward()


def test_backward_with_explicit_grad():
    a = t([1.0, 2.0])
    (a * 2).backward(np.array([1.0, 10.0]))
    assert np.allclose(a.grad, [2.0, 20.0])


def test_backward_grad_shape_mismatch():
    a = t([1.0, 2.0])
    with pytest.raises(ValueError):
        (a * 2).backward(np.array([1.0]))


def test_backward_on_no_grad_tensor_raises():
    a = Tensor([1.0], requires_grad=False)
    with pytest.raises(RuntimeError):
        a.backward()


def test_no_grad_context_stops_taping():
    a = t([1.0])
    with no_grad():
        y = a * 2
    assert not y.requires_grad


def test_sum_axis_keepdims():
    a = t(np.ones((2, 3)))
    y = a.sum(axis=1, keepdims=True)
    assert y.shape == (2, 1)
    y.sum().backward()
    assert np.allclose(a.grad, np.ones((2, 3)))


def test_mean_backward():
    a = t(np.ones((4,)))
    a.mean().backward()
    assert np.allclose(a.grad, [0.25] * 4)


def test_mean_multi_axis():
    a = t(np.ones((2, 3, 4)))
    a.mean(axis=(1, 2)).sum().backward()
    assert np.allclose(a.grad, np.full((2, 3, 4), 1 / 12))


def test_max_backward_spreads_ties():
    a = t([1.0, 5.0, 5.0])
    a.max().backward()
    assert np.allclose(a.grad, [0, 0.5, 0.5])


def test_max_axis_backward():
    a = t([[1.0, 3.0], [4.0, 2.0]])
    a.max(axis=1).sum().backward()
    assert np.allclose(a.grad, [[0, 1], [1, 0]])


def test_reshape_roundtrip():
    a = t(np.arange(6, dtype=float))
    y = a.reshape(2, 3)
    y.sum().backward()
    assert a.grad.shape == (6,)


def test_transpose_backward():
    a = t(np.arange(6, dtype=float).reshape(2, 3))
    a.T.sum().backward()
    assert a.grad.shape == (2, 3)


def test_transpose_with_axes():
    a = t(np.zeros((2, 3, 4)))
    y = a.transpose(2, 0, 1)
    assert y.shape == (4, 2, 3)
    y.sum().backward()
    assert a.grad.shape == (2, 3, 4)


def test_getitem_backward_scatter():
    a = t(np.arange(5, dtype=float))
    a[1:3].sum().backward()
    assert np.allclose(a.grad, [0, 1, 1, 0, 0])


def test_getitem_fancy_index_duplicates_accumulate():
    a = t(np.zeros(3))
    idx = np.array([0, 0, 2])
    a[idx].sum().backward()
    assert np.allclose(a.grad, [2, 0, 1])


def test_elementwise_unaries():
    for name in ["exp", "log", "sqrt", "tanh", "sigmoid", "relu", "abs"]:
        a = t([0.5, 1.5])
        getattr(a, name)().sum().backward()
        assert a.grad is not None, name


def test_relu_gradient_mask():
    a = t([-1.0, 2.0])
    a.relu().sum().backward()
    assert np.allclose(a.grad, [0, 1])


def test_concatenate_backward():
    a, b = t([1.0, 2.0]), t([3.0])
    y = concatenate([a, b])
    assert y.shape == (3,)
    (y * Tensor([1.0, 2.0, 3.0])).sum().backward()
    assert np.allclose(a.grad, [1, 2])
    assert np.allclose(b.grad, [3])


def test_concatenate_empty_raises():
    with pytest.raises(ValueError):
        concatenate([])


def test_stack_backward():
    a, b = t([1.0, 2.0]), t([3.0, 4.0])
    y = stack([a, b], axis=0)
    assert y.shape == (2, 2)
    y.sum().backward()
    assert np.allclose(a.grad, [1, 1])


def test_deep_chain_no_recursion_error():
    a = t([1.0])
    y = a
    for _ in range(3000):
        y = y * 1.0001
    y.sum().backward()
    assert a.grad is not None


def test_repr_and_item():
    a = t([2.5])
    assert "requires_grad=True" in repr(a)
    assert a.item() == 2.5
    assert len(t([1.0, 2.0])) == 2
