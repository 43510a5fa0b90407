"""Unit tests for SGD and LR schedulers."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.nn import Linear, cross_entropy
from repro.nn.models import MLP
from repro.optim import SGD, StepLR


def rng(seed=0):
    return np.random.default_rng(seed)


def make_model():
    return MLP([4, 8, 2], seed=0)


def test_sgd_plain_update_matches_formula():
    m = Linear(2, 1, rng(), bias=False)

    class Wrapper:
        pass

    opt = SGD(m, lr=0.5)
    w0 = m.weight.data.copy()
    grads = {"weight": np.ones_like(w0)}
    opt.step_with_grads(grads)
    assert np.allclose(m.weight.data, w0 - 0.5)


def test_sgd_step_uses_tape_grads():
    m = make_model()
    opt = SGD(m, lr=0.1)
    x = np.random.default_rng(1).normal(size=(8, 4))
    y = np.random.default_rng(2).integers(0, 2, size=8)
    before = m.state_dict()
    loss = cross_entropy(m(x), y)
    loss.backward()
    opt.step()
    after = m.state_dict()
    assert any(not np.allclose(before[k], after[k]) for k in before)


def test_sgd_step_without_grads_raises():
    opt = SGD(make_model(), lr=0.1)
    with pytest.raises(RuntimeError):
        opt.step()


def test_sgd_momentum_accelerates_constant_gradient():
    m = Linear(1, 1, rng(), bias=False)
    opt = SGD(m, lr=1.0, momentum=0.9)
    g = {"weight": np.array([[1.0]])}
    w0 = m.weight.data.item()
    opt.step_with_grads(g)
    first = w0 - m.weight.data.item()
    opt.step_with_grads(g)
    second = w0 - first - m.weight.data.item()
    assert second > first  # velocity accumulated


def test_sgd_weight_decay_shrinks_weights():
    m = Linear(1, 1, rng(), bias=False)
    m.weight.data[...] = 10.0
    opt = SGD(m, lr=0.1, weight_decay=0.1)
    opt.step_with_grads({"weight": np.zeros((1, 1))})
    assert m.weight.data.item() < 10.0


def test_sgd_partial_update_leaves_other_params():
    m = make_model()
    opt = SGD(m, lr=0.1)
    names = [n for n, _ in m.named_parameters()]
    target = names[0]
    before = m.state_dict()
    opt.step_with_grads({target: np.ones(before[target].shape)})
    after = m.state_dict()
    assert not np.allclose(before[target], after[target])
    for other in names[1:]:
        assert np.allclose(before[other], after[other])


def test_sgd_rejects_unknown_or_misshaped():
    opt = SGD(make_model(), lr=0.1)
    with pytest.raises(KeyError):
        opt.step_with_grads({"ghost": np.zeros(1)})
    name = next(iter(dict(make_model().named_parameters())))
    with pytest.raises(ValueError):
        opt.step_with_grads({name: np.zeros((1, 1, 1))})


def test_sgd_validation():
    m = make_model()
    with pytest.raises(ValueError):
        SGD(m, lr=0)
    with pytest.raises(ValueError):
        SGD(m, lr=0.1, momentum=1.0)
    with pytest.raises(ValueError):
        SGD(m, lr=0.1, weight_decay=-1)


def test_gradient_dict_copies():
    m = make_model()
    x = np.zeros((2, 4))
    cross_entropy(m(x), np.array([0, 1])).backward()
    opt = SGD(m, lr=0.1)
    gd = opt.gradient_dict()
    first = next(iter(gd))
    gd[first][...] = 99.0
    assert not np.allclose(dict(m.named_parameters())[first].grad, 99.0)


def test_sgd_training_reduces_loss():
    """End-to-end sanity: a few SGD epochs reduce loss on a separable task."""
    m = MLP([2, 16, 2], seed=0)
    opt = SGD(m, lr=0.1, momentum=0.9)
    g = np.random.default_rng(0)
    x = g.normal(size=(128, 2))
    y = (x[:, 0] > 0).astype(np.int64)
    losses = []
    for _ in range(30):
        opt.zero_grad()
        loss = cross_entropy(m(x), y)
        loss.backward()
        opt.step()
        losses.append(loss.item())
    assert losses[-1] < 0.3 * losses[0]


# -------------------------------------------------------------- schedulers
def test_steplr_halves_every_10_epochs_paper_schedule():
    opt = SGD(make_model(), lr=0.1)
    sched = StepLR(opt, step_epochs=10, gamma=0.5)
    for epoch in range(25):
        sched.epoch_end(epoch)
    # After 25 epochs: floor(25/10)=2 decays
    assert opt.lr == pytest.approx(0.1 * 0.25)


def test_steplr_no_decay_before_boundary():
    opt = SGD(make_model(), lr=0.1)
    sched = StepLR(opt, step_epochs=10, gamma=0.5)
    sched.epoch_end(0)
    assert opt.lr == pytest.approx(0.1)
    sched.epoch_end(9)  # 10th epoch done
    assert opt.lr == pytest.approx(0.05)


def test_steplr_validation():
    opt = SGD(make_model(), lr=0.1)
    with pytest.raises(ValueError):
        StepLR(opt, step_epochs=0)
    with pytest.raises(ValueError):
        StepLR(opt, gamma=0)
