"""Property-based tests for SGD mechanics."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.nn import Linear
from repro.optim import SGD


def make_layer(seed=0):
    return Linear(2, 2, np.random.default_rng(seed), bias=False)


@given(
    st.floats(min_value=1e-3, max_value=1.0),
    st.floats(min_value=0.0, max_value=0.95),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=60, deadline=None)
@example(lr=1 / 3, momentum=0.0, steps=3, seed=0)  # the update cancels w0 to ~1e-17
def test_property_momentum_matches_closed_form(lr, momentum, steps, seed):
    """For a constant gradient g, SGD-with-momentum after k steps equals
    w0 − lr·g·Σ_{i=1..k} (1 − m^i)/(1 − m)."""
    layer = make_layer(seed % 100)
    opt = SGD(layer, lr=lr, momentum=momentum)
    g = np.random.default_rng(seed).normal(size=(2, 2))
    w0 = layer.weight.data.copy()
    for _ in range(steps):
        opt.step_with_grads({"weight": g})
    if momentum == 0:
        total = steps
    else:
        total = sum((1 - momentum**i) / (1 - momentum) for i in range(1, steps + 1))
    update = lr * g * total
    # A difference rounds relative to the terms it cancels, not to its result,
    # which can be (near) zero: the absolute tolerance scales with |w0| and
    # |lr·g·total|.
    atol = 1e-9 * float(np.max(np.abs(w0) + np.abs(update)))
    np.testing.assert_allclose(layer.weight.data, w0 - update, rtol=1e-9, atol=atol)


@given(
    st.floats(min_value=1e-3, max_value=0.5),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=40, deadline=None)
def test_property_weight_decay_is_l2_shrinkage(lr, steps, seed):
    """With zero gradient, weight decay shrinks weights geometrically."""
    wd = 0.1
    layer = make_layer(seed % 100)
    opt = SGD(layer, lr=lr, weight_decay=wd)
    w0 = layer.weight.data.copy()
    for _ in range(steps):
        opt.step_with_grads({"weight": np.zeros((2, 2))})
    np.testing.assert_allclose(
        layer.weight.data, w0 * (1 - lr * wd) ** steps, rtol=1e-9
    )


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_property_update_linear_in_gradient(seed):
    """Plain SGD: step(a·g) ≡ a · step(g) in parameter delta."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(2, 2))
    a = float(rng.uniform(0.5, 3.0))

    def delta(grad):
        layer = make_layer(1)
        opt = SGD(layer, lr=0.1)
        w0 = layer.weight.data.copy()
        opt.step_with_grads({"weight": grad})
        return layer.weight.data - w0

    np.testing.assert_allclose(delta(a * g), a * delta(g), rtol=1e-9)


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_property_partial_updates_commute_with_full(seed):
    """Applying grads per-parameter in any order equals one combined call
    (no momentum): the mechanism OSP's split updates rely on."""
    rng = np.random.default_rng(seed)
    layer_a = Linear(2, 2, np.random.default_rng(0))
    layer_b = Linear(2, 2, np.random.default_rng(0))
    grads = {
        "weight": rng.normal(size=(2, 2)),
        "bias": rng.normal(size=(2,)),
    }
    opt_a = SGD(layer_a, lr=0.2)
    opt_a.step_with_grads(grads)
    opt_b = SGD(layer_b, lr=0.2)
    opt_b.step_with_grads({"bias": grads["bias"]})
    opt_b.step_with_grads({"weight": grads["weight"]})
    np.testing.assert_allclose(layer_a.weight.data, layer_b.weight.data)
    np.testing.assert_allclose(layer_a.bias.data, layer_b.bias.data)
