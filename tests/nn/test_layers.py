"""Unit tests for nn layers."""

import math

import numpy as np
import pytest

from repro.autograd import Tensor, grad_check
from repro.nn import (
    BatchNorm2d,
    Conv2d,
    Embedding,
    Flatten,
    GELU,
    LayerNorm,
    Linear,
    MaxPool2d,
    ReLU,
)


def rng(seed=0):
    return np.random.default_rng(seed)


def test_linear_shapes_and_grad():
    layer = Linear(3, 5, rng())
    x = Tensor(np.ones((2, 3)), requires_grad=True)
    out = layer(x)
    assert out.shape == (2, 5)
    out.sum().backward()
    assert layer.weight.grad.shape == (3, 5)
    assert layer.bias.grad.shape == (5,)


def test_linear_no_bias():
    layer = Linear(3, 5, rng(), bias=False)
    assert layer.bias is None
    assert len(layer.parameters()) == 1


def test_linear_gradcheck():
    layer = Linear(2, 3, rng(1))
    x = Tensor(rng(2).normal(size=(2, 2)), requires_grad=True)
    grad_check(lambda a: (layer(a) ** 2).sum(), [x])


def test_conv2d_layer_shapes():
    layer = Conv2d(3, 6, 3, rng(), padding=1)
    out = layer(Tensor(np.zeros((2, 3, 8, 8))))
    assert out.shape == (2, 6, 8, 8)


def test_batchnorm_normalises_in_train_mode():
    bn = BatchNorm2d(4)
    x = Tensor(rng().normal(loc=5.0, scale=3.0, size=(8, 4, 6, 6)))
    out = bn(x)
    assert np.allclose(out.data.mean(axis=(0, 2, 3)), 0.0, atol=1e-6)
    assert np.allclose(out.data.std(axis=(0, 2, 3)), 1.0, atol=1e-2)


def test_batchnorm_running_stats_update():
    bn = BatchNorm2d(2, momentum=0.5)
    x = Tensor(np.full((4, 2, 3, 3), 10.0))
    bn(x)
    assert np.allclose(bn.running_mean, 5.0)  # 0.5*0 + 0.5*10


@pytest.mark.parametrize("nhwc_strided", [False, True])
def test_batchnorm_batch_stats_are_numpys_bits(nhwc_strided):
    # momentum 1.0 makes the running stats the batch stats themselves. The
    # strided case is what conv2d hands on (NCHW view of NHWC memory), where
    # the reduction pairs elements differently than for a C-contiguous array.
    data = rng().normal(loc=2.0, scale=3.0, size=(25, 8, 16, 16))
    if nhwc_strided:
        data = np.ascontiguousarray(data.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
    assert data.flags.c_contiguous != nhwc_strided
    bn = BatchNorm2d(8, momentum=1.0)
    bn(Tensor(data))
    assert np.array_equal(bn.running_mean, data.mean(axis=(0, 2, 3)))
    assert np.array_equal(bn.running_var, data.var(axis=(0, 2, 3)))


def test_batchnorm_eval_uses_running_stats():
    bn = BatchNorm2d(2)
    x = Tensor(rng().normal(size=(4, 2, 3, 3)))
    for _ in range(50):
        bn(x)
    bn.eval()
    out_eval = bn(x)
    # After many updates running stats ≈ batch stats, so eval ≈ train output.
    bn.train()
    out_train = bn(x)
    assert np.allclose(out_eval.data, out_train.data, atol=0.15)


def test_batchnorm_rejects_non_nchw():
    with pytest.raises(ValueError):
        BatchNorm2d(2)(Tensor(np.zeros((4, 2))))


def test_batchnorm_gamma_beta_learnable():
    bn = BatchNorm2d(3)
    x = Tensor(rng().normal(size=(4, 3, 2, 2)), requires_grad=True)
    bn(x).sum().backward()
    assert bn.gamma.grad is not None
    assert bn.beta.grad is not None


def test_layernorm_normalises_last_dim():
    ln = LayerNorm(8)
    x = Tensor(rng().normal(loc=3.0, size=(4, 8)))
    out = ln(x)
    assert np.allclose(out.data.mean(axis=-1), 0.0, atol=1e-6)


def test_layernorm_gradcheck():
    ln = LayerNorm(3)
    x = Tensor(rng(3).normal(size=(2, 3)), requires_grad=True)
    grad_check(lambda a: (ln(a) * Tensor(rng(4).normal(size=(2, 3)))).sum(), [x])


def test_activations_shapes():
    x = Tensor(rng().normal(size=(3, 3)))
    for layer in [ReLU(), GELU()]:
        assert layer(x).shape == (3, 3)


def test_gelu_matches_reference():
    x = np.linspace(-3, 3, 50)
    ours = GELU()(Tensor(x)).data
    exact = x * np.array([0.5 * (1.0 + math.erf(v / math.sqrt(2.0))) for v in x])
    assert np.allclose(ours, exact, atol=5e-3)


def test_flatten():
    out = Flatten()(Tensor(np.zeros((2, 3, 4, 5))))
    assert out.shape == (2, 60)


def test_maxpool_layer():
    out = MaxPool2d(2)(Tensor(np.zeros((1, 1, 4, 4))))
    assert out.shape == (1, 1, 2, 2)


def test_embedding_layer():
    emb = Embedding(10, 4, rng())
    out = emb(np.array([[1, 2], [3, 4]]))
    assert out.shape == (2, 2, 4)
