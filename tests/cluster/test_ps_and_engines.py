"""Unit tests for ParameterServer aggregation and the two engines."""

import numpy as np
import pytest

from repro.cluster import ClusterSpec, NumericEngine, ParameterServer, TimingEngine
from repro.cluster.engines import INITIAL_LOSS
from repro.cluster.spec import TrainingPlan
from repro.data import make_image_classification, train_test_split
from repro.nn.models import MLP, get_card
from repro.nn.models.registry import ModelCard
from repro.optim import SGD

CARD = ModelCard(
    name="unit-mlp",
    family="inception",
    dataset="synthetic",
    task="classification",
    paper_params=500_000,
    paper_flops_per_sample=1e8,
    paper_layers=6,
    batch_size=8,
    metric="top1",
    mini_factory=lambda seed: MLP([12, 8, 3], seed=seed),
)


def make_ps(n_workers=2, weights=None):
    model = MLP([4, 6, 2], seed=0)
    opt = SGD(model, lr=1.0)
    return model, ParameterServer(model, opt, n_workers, worker_weights=weights)


# -------------------------------------------------------------- PS buckets
def test_ps_accumulate_counts_and_quorum():
    _m, ps = make_ps(3)
    assert ps.accumulate("b", 0, {}) == 1
    assert ps.accumulate("b", 1, {}) == 2
    assert ps.pending("b") == 2
    assert ps.accumulate("b", 2, {}) == 3


def test_ps_double_deposit_rejected():
    _m, ps = make_ps(2)
    ps.accumulate("b", 0, {})
    with pytest.raises(RuntimeError):
        ps.accumulate("b", 0, {})


def test_ps_apply_average_weighted():
    model, ps = make_ps(2, weights=[3.0, 1.0])
    name = "net.m0.weight"
    shape = dict(model.named_parameters())[name].data.shape
    before = ps.snapshot([name])[name]
    g0 = np.ones(shape)
    g1 = -np.ones(shape)
    ps.accumulate("b", 0, {name: g0})
    ps.accumulate("b", 1, {name: g1})
    ps.apply_average("b")
    after = ps.snapshot([name])[name]
    # weighted avg = 0.75*1 + 0.25*(-1) = 0.5; lr=1 -> delta = -0.5
    assert np.allclose(after, before - 0.5)
    assert ps.version == 1


def test_ps_apply_average_empty_bucket_raises():
    _m, ps = make_ps(2)
    with pytest.raises(RuntimeError):
        ps.apply_average("nothing")


def test_ps_apply_immediate_scales_by_weight():
    model, ps = make_ps(2, weights=[1.0, 1.0])
    name = "net.m0.weight"
    shape = dict(model.named_parameters())[name].data.shape
    before = ps.snapshot([name])[name]
    ps.apply_immediate(0, {name: np.ones(shape)})
    after = ps.snapshot([name])[name]
    assert np.allclose(after, before - 0.5)  # weight 1/2, lr 1


def test_ps_snapshot_subset_and_unknown():
    _m, ps = make_ps()
    names = list(ps.snapshot(copy=False))
    snap = ps.snapshot([names[0]])
    assert set(snap) == {names[0]}
    with pytest.raises(KeyError):
        ps.snapshot(["ghost"])


def test_ps_snapshot_is_a_copy():
    _m, ps = make_ps()
    name = next(iter(ps.snapshot(copy=False)))
    snap = ps.snapshot([name])
    snap[name][...] = 123.0
    assert not np.allclose(ps.snapshot([name])[name], 123.0)


def test_ps_timing_mode_counts_versions_only():
    ps = ParameterServer(None, None, 4)
    assert not ps.numeric
    for w in range(4):
        ps.accumulate("b", w, None)
    ps.apply_average("b")
    ps.apply_immediate(0, None)
    assert ps.version == 2
    assert ps.snapshot() == {}


def test_ps_validation():
    model = MLP([2, 2], seed=0)
    opt = SGD(model, lr=0.1)
    with pytest.raises(ValueError):
        ParameterServer(model, None, 2)
    with pytest.raises(ValueError):
        ParameterServer(model, opt, 0)
    with pytest.raises(ValueError):
        ParameterServer(model, opt, 2, worker_weights=[1.0])
    with pytest.raises(ValueError):
        ParameterServer(model, opt, 2, worker_weights=[-1.0, 2.0])


def test_ps_last_aggregated_tracks_full_gradient():
    model, ps = make_ps(1, weights=[1.0])
    grads = {n: np.ones(p.data.shape) for n, p in model.named_parameters()}
    ps.accumulate("b", 0, grads)
    ps.apply_average("b")
    assert set(ps.last_aggregated) == set(ps.snapshot(copy=False))


def test_ps_last_aggregated_consistent_across_apply_paths():
    """Regression: apply_immediate used to leave last_aggregated untouched,
    so PGP importance computed from it went stale under ASP-style updates.
    Both paths must record exactly what was applied, on the same scale."""
    name = "net.m0.weight"

    model, ps = make_ps(2, weights=[3.0, 1.0])
    shape = dict(model.named_parameters())[name].data.shape
    ps.accumulate("b", 0, {name: np.ones(shape)})
    ps.accumulate("b", 1, {name: -np.ones(shape)})
    ps.apply_average("b")
    # weighted average: 0.75*1 + 0.25*(-1) = 0.5
    assert np.allclose(ps.last_aggregated[name], 0.5)

    model2, ps2 = make_ps(2, weights=[3.0, 1.0])
    before = ps2.snapshot([name])[name]
    ps2.apply_immediate(0, {name: np.ones(shape)})
    # the applied (weight-scaled) gradient, not the raw push
    assert np.allclose(ps2.last_aggregated[name], 0.75)
    # and it matches what actually moved the model (lr=1)
    after = ps2.snapshot([name])[name]
    assert np.allclose(before - after, ps2.last_aggregated[name])


# ---------------------------------------------------------------- engines
def test_timing_engine_layer_bytes_sum_to_model():
    spec = ClusterSpec(n_workers=2)
    eng = TimingEngine(get_card("vgg16-cifar10"), spec, total_iterations=10)
    assert eng.model_bytes == pytest.approx(
        get_card("vgg16-cifar10").model_bytes, rel=1e-6
    )
    assert len(eng.layer_bytes) == 16


def test_timing_engine_loss_curve_monotone():
    spec = ClusterSpec(n_workers=1)
    eng = TimingEngine(get_card("resnet50-cifar10"), spec, total_iterations=100)
    losses = [eng.synthetic_loss(i) for i in range(0, 100, 10)]
    assert losses == sorted(losses, reverse=True)
    assert losses[0] <= INITIAL_LOSS


def test_timing_engine_compute_advances_steps():
    spec = ClusterSpec(n_workers=2)
    eng = TimingEngine(get_card("resnet50-cifar10"), spec, total_iterations=10)
    _g, l0, s = eng.compute(0, 0, 0)
    _g, l1, _s = eng.compute(0, 0, 1)
    assert l1 < l0
    assert s == 64


def test_timing_engine_importance_positive_and_stable():
    spec = ClusterSpec(n_workers=1)
    eng = TimingEngine(get_card("resnet50-cifar10"), spec, total_iterations=10)
    imp1 = eng.ps_layer_importance(None)
    imp2 = eng.ps_layer_importance(None)
    assert imp1 == imp2
    assert all(v > 0 for v in imp1.values())


def test_timing_engine_validation():
    spec = ClusterSpec(n_workers=1)
    with pytest.raises(ValueError):
        TimingEngine(get_card("resnet50-cifar10"), spec, total_iterations=0)


def test_numeric_engine_layer_bytes_scaled_to_card():
    ds = make_image_classification(80, n_classes=3, image_size=2, channels=3, seed=0)
    tr, te = train_test_split(ds, 0.25, seed=0)
    spec = ClusterSpec(n_workers=2)
    eng = NumericEngine(CARD, tr, te, spec, batch_size=8, seed=0)
    assert sum(eng.layer_bytes.values()) == pytest.approx(CARD.model_bytes, rel=1e-3)


def test_numeric_engine_compute_returns_full_gradients():
    ds = make_image_classification(80, n_classes=3, image_size=2, channels=3, seed=0)
    tr, te = train_test_split(ds, 0.25, seed=0)
    spec = ClusterSpec(n_workers=2)
    eng = NumericEngine(CARD, tr, te, spec, batch_size=8, seed=0)
    grads, loss, samples = eng.compute(0, 0, 0)
    assert set(grads) == {n for n, _ in eng.global_model.named_parameters()}
    assert loss > 0
    assert samples == CARD.batch_size  # virtual batch follows the card


def test_numeric_engine_importance_inf_for_unseen_layers():
    ds = make_image_classification(80, n_classes=3, image_size=2, channels=3, seed=0)
    tr, te = train_test_split(ds, 0.25, seed=0)
    spec = ClusterSpec(n_workers=1)
    eng = NumericEngine(CARD, tr, te, spec, batch_size=8, seed=0)
    ps = eng.make_ps(TrainingPlan())
    imp = eng.ps_layer_importance(ps)  # no gradients aggregated yet
    assert all(v == float("inf") for v in imp.values())


def test_numeric_engine_sync_replica_subset():
    ds = make_image_classification(80, n_classes=3, image_size=2, channels=3, seed=0)
    tr, te = train_test_split(ds, 0.25, seed=0)
    spec = ClusterSpec(n_workers=2)
    eng = NumericEngine(CARD, tr, te, spec, batch_size=8, seed=0)
    ps = eng.make_ps(TrainingPlan())
    name = next(iter(ps.snapshot(copy=False)))
    # Perturb the replica, then restore just one parameter from the PS.
    eng.worker_params(0)[name][...] += 5.0
    eng.sync_replica(0, ps, names=[name])
    assert np.array_equal(eng.worker_params(0)[name], ps.snapshot([name])[name])
