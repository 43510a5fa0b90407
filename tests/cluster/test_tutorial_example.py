"""The tutorial's custom sync model (docs/tutorial.md §4) must actually
work — this test IS the snippet, kept honest."""

import numpy as np

from repro.cluster import ClusterSpec, DistributedTrainer, NumericEngine, TimingEngine, TrainingPlan
from repro.data import make_image_classification, train_test_split
from repro.faults import FaultSchedule, WorkerCrash
from repro.hardware import NoJitter
from repro.nn.models import MLP, get_card
from repro.nn.models.registry import ModelCard
from repro.sync import BSP
from repro.sync.base import SyncModel


class PeriodicBSP(SyncModel):
    name = "periodic-bsp"

    def __init__(self, period: int = 4):
        self.period = period

    def synchronize(self, ctx, worker, epoch, iteration, grads, loss):
        if iteration % self.period:
            if grads is not None:  # local step on the replica
                lr = ctx.current_lr
                replica = ctx.engine.worker_params(worker)
                for name, g in grads.items():
                    replica[name][...] -= lr * g
            return  # no communication at all
        nbytes = ctx.engine.model_bytes
        yield from self.push(ctx, worker, iteration, "pbsp", nbytes)
        yield from self.sync_round(ctx, worker, iteration, grads)
        yield from self.pull(ctx, worker, iteration, "pbsp", nbytes)
        ctx.engine.sync_replica(worker, ctx.ps)


def test_periodic_bsp_timing_mode_syncs_less():
    def run(sync):
        spec = ClusterSpec(n_workers=4, jitter=NoJitter())
        plan = TrainingPlan(n_epochs=2, iterations_per_epoch=8)
        engine = TimingEngine(get_card("resnet50-cifar10"), spec, total_iterations=16)
        return DistributedTrainer(spec, plan, engine, sync).run()

    periodic = run(PeriodicBSP(period=4))
    full = run(BSP())
    assert periodic.mean_bst < 0.5 * full.mean_bst
    assert periodic.throughput > 1.5 * full.throughput


def test_periodic_bsp_gets_spans_and_tags_for_free():
    """`push` / `pull` trace and tag the stage like every model's."""
    spec = ClusterSpec(n_workers=2, jitter=NoJitter())
    plan = TrainingPlan(n_epochs=1, iterations_per_epoch=4)
    engine = TimingEngine(get_card("resnet50-cifar10"), spec, total_iterations=4)
    trainer = DistributedTrainer(spec, plan, engine, PeriodicBSP(period=2))
    tracer = trainer.enable_tracing()
    trainer.run()
    spans = [(s.name, s.actor, s.iteration) for s in tracer.spans_named("rs_push", "rs_pull")]
    assert spans == [
        (name, f"worker {w}", i) for i in (0, 2) for name in ("rs_push", "rs_pull") for w in (0, 1)
    ]
    tags = sorted(r.tag for r in trainer.network.records)
    assert tags == sorted(
        (f"pbsp-{d}", w, i) for d in ("push", "pull") for w in (0, 1) for i in (0, 2)
    )


def test_periodic_bsp_survives_a_crash():
    """The base round's barrier tracks the alive set: nothing to write."""
    crash = FaultSchedule((WorkerCrash(2, before_epoch=1),))
    spec = ClusterSpec(n_workers=4, jitter=NoJitter(), faults=crash)
    plan = TrainingPlan(n_epochs=3, iterations_per_epoch=8)
    engine = TimingEngine(get_card("resnet50-cifar10"), spec, total_iterations=24)
    trainer = DistributedTrainer(spec, plan, engine, PeriodicBSP(period=4))
    res = trainer.run()
    assert len(res.recorder.epochs) == 3
    assert res.recorder.counter("osp.degraded_quorum") == 4  # epochs 1-2, every 4th


def test_periodic_bsp_numeric_mode_learns():
    card = ModelCard(
        name="tut-mlp",
        family="resnet",
        dataset="synthetic",
        task="classification",
        paper_params=1_000_000,
        paper_flops_per_sample=1e8,
        paper_layers=4,
        batch_size=16,
        metric="top1",
        mini_factory=lambda seed: MLP([3 * 8 * 8, 32, 4], seed=seed),
    )
    ds = make_image_classification(480, n_classes=4, image_size=8, noise=1.5, seed=0)
    train, test = train_test_split(ds, 0.25, seed=1)
    spec = ClusterSpec(n_workers=2, jitter=NoJitter())
    plan = TrainingPlan(n_epochs=4, lr=0.1, momentum=0.9)
    engine = NumericEngine(card, train, test, spec, batch_size=16, seed=0)
    res = DistributedTrainer(spec, plan, engine, PeriodicBSP(period=3)).run()
    assert res.best_metric > 0.6
