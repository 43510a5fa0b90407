"""Tests for §6.1 multi-PS sharded synchronization."""

import numpy as np
import pytest

from repro.cluster import ClusterSpec, DistributedTrainer, TimingEngine, TrainingPlan
from repro.data import make_image_classification, train_test_split
from repro.cluster.numeric import NumericEngine
from repro.hardware import NoJitter
from repro.nn.models import MLP, get_card
from repro.nn.models.registry import ModelCard
from repro.sync import BSP, ShardedBSP


def run_timing(n_ps, workers=8, ipe=4):
    spec = ClusterSpec(n_workers=workers, jitter=NoJitter(), n_ps=n_ps)
    plan = TrainingPlan(n_epochs=1, iterations_per_epoch=ipe)
    eng = TimingEngine(get_card("resnet50-cifar10"), spec, total_iterations=ipe)
    sm = ShardedBSP()
    res = DistributedTrainer(spec, plan, eng, sm).run()
    return res, sm


def test_spec_ps_nodes_layout():
    spec = ClusterSpec(n_workers=4, n_ps=3)
    assert spec.n_nodes == 7
    assert spec.ps_nodes == (4, 5, 6)
    assert spec.ps_node == 4


def test_spec_validation():
    with pytest.raises(ValueError):
        ClusterSpec(n_workers=2, n_ps=0)
    with pytest.raises(ValueError):
        ClusterSpec(n_workers=2, n_ps=2, colocated_ps=True)


def test_sharded_bsp_single_ps_equals_bsp():
    res_sharded, _sm = run_timing(n_ps=1)
    spec = ClusterSpec(n_workers=8, jitter=NoJitter(), n_ps=1)
    plan = TrainingPlan(n_epochs=1, iterations_per_epoch=4)
    eng = TimingEngine(get_card("resnet50-cifar10"), spec, total_iterations=4)
    res_bsp = DistributedTrainer(spec, plan, eng, BSP()).run()
    assert res_sharded.mean_bst == pytest.approx(res_bsp.mean_bst, rel=0.02)


def test_sharded_bsp_scales_with_ps_count():
    """§6.1: k PSes divide the sync time by ~k (balanced shards)."""
    bst = {}
    for n_ps in (1, 2, 4):
        res, _sm = run_timing(n_ps)
        bst[n_ps] = res.mean_bst
    assert bst[2] == pytest.approx(bst[1] / 2, rel=0.1)
    assert bst[4] == pytest.approx(bst[1] / 4, rel=0.15)


def test_sharded_bsp_matches_plan_prediction():
    res, sm = run_timing(n_ps=2)
    predicted = sm.plan.predicted_bst(8, ClusterSpec().link.bandwidth)
    # Prediction ignores latency + PS aggregation service: measured is a
    # little above but within 20%.
    assert predicted <= res.mean_bst <= 1.2 * predicted


def test_sharded_bsp_numeric_matches_plain_bsp_params():
    """Sharding is transport-only: the numeric result equals plain BSP."""
    card = ModelCard(
        name="tiny",
        family="resnet",
        dataset="synthetic",
        task="classification",
        paper_params=1_000_000,
        paper_flops_per_sample=1e8,
        paper_layers=4,
        batch_size=8,
        metric="top1",
        mini_factory=lambda seed: MLP([3 * 4 * 4, 16, 3], seed=seed),
    )
    ds = make_image_classification(160, n_classes=3, image_size=4, seed=0)
    train, test = train_test_split(ds, 0.25, seed=0)

    def final_params(sync, n_ps):
        spec = ClusterSpec(n_workers=2, jitter=NoJitter(), n_ps=n_ps)
        plan = TrainingPlan(n_epochs=2, lr=0.1, momentum=0.9)
        eng = NumericEngine(card, train, test, spec, batch_size=10, seed=0)
        trainer = DistributedTrainer(spec, plan, eng, sync)
        trainer.run()
        return trainer.ps.snapshot()

    a = final_params(BSP(), 1)
    b = final_params(ShardedBSP(), 3)
    for name in a:
        np.testing.assert_allclose(a[name], b[name], atol=1e-12)


def test_sharded_bsp_uses_all_ps_nodes():
    spec = ClusterSpec(n_workers=4, jitter=NoJitter(), n_ps=3)
    plan = TrainingPlan(n_epochs=1, iterations_per_epoch=2)
    eng = TimingEngine(get_card("resnet50-cifar10"), spec, total_iterations=2)
    trainer = DistributedTrainer(spec, plan, eng, ShardedBSP())
    trainer.run()
    destinations = {
        r.dst
        for r in trainer.network.records
        if isinstance(r.tag, tuple) and r.tag[0] == "sbsp-push"
    }
    assert destinations == set(spec.ps_nodes)
