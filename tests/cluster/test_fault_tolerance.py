"""Fault-tolerance tests: the PS keeps training when a worker dies (§1's
motivation for PS over Ring-AllReduce)."""

import numpy as np
import pytest

from repro.cluster import ClusterSpec, DistributedTrainer, NumericEngine, TimingEngine, TrainingPlan
from repro.data import make_image_classification, train_test_split
from repro.faults import FaultSchedule, WorkerCrash
from repro.hardware import NoJitter
from repro.nn.models import MLP, get_card
from repro.nn.models.registry import ModelCard
from repro.sync import ASP, R2SP, SSP


def crash(worker, before_epoch):
    return FaultSchedule((WorkerCrash(worker, before_epoch=before_epoch),))


def make_trainer(sync, workers=4, epochs=4, ipe=4, faults=None):
    spec = ClusterSpec(n_workers=workers, jitter=NoJitter(), faults=faults)
    plan = TrainingPlan(n_epochs=epochs, iterations_per_epoch=ipe)
    engine = TimingEngine(get_card("resnet50-cifar10"), spec, total_iterations=epochs * ipe)
    return DistributedTrainer(spec, plan, engine, sync)


def test_crash_schedule_validation():
    with pytest.raises(ValueError, match="unknown worker 99"):
        ClusterSpec(n_workers=4, faults=crash(99, 1))
    with pytest.raises(ValueError, match=r"^before_epoch must be an integer in \[1, inf\), got 0$"):
        crash(0, 0)


def test_asp_survives_worker_crash():
    trainer = make_trainer(ASP(), workers=4, epochs=4, ipe=4, faults=crash(2, 2))
    res = trainer.run()
    # worker 2 did 2 epochs, the other three all 4.
    per_worker = {}
    for r in res.recorder.iterations:
        per_worker[r.worker] = per_worker.get(r.worker, 0) + 1
    assert per_worker[2] == 2 * 4
    assert all(per_worker[w] == 4 * 4 for w in (0, 1, 3))
    # every epoch still got evaluated (survivors complete the arrivals)
    assert len(res.recorder.epochs) == 4
    assert trainer.ctx.alive_workers == frozenset({0, 1, 3})


@pytest.mark.parametrize("sync_factory", [ASP, lambda: SSP(staleness=3), R2SP])
def test_barrier_free_models_survive_crash(sync_factory):
    trainer = make_trainer(sync_factory(), workers=3, epochs=3, ipe=3, faults=crash(0, 2))
    res = trainer.run()
    assert len(res.recorder.epochs) == 3


def test_crash_of_last_arrival_completes_pending_epoch():
    """If the crashed worker was the only one missing from an epoch's
    arrivals, retiring it must complete (evaluate) that epoch."""
    trainer = make_trainer(ASP(), workers=2, epochs=3, ipe=2, faults=crash(1, 1))
    # Worker 1 is much slower: make worker 0 wait on worker 1's arrival.
    from repro.hardware import PersistentStraggler

    object.__setattr__(trainer.spec, "jitter", PersistentStraggler([1], 5.0))
    res = trainer.run()
    assert len(res.recorder.epochs) == 3


def test_numeric_training_continues_after_crash():
    card = ModelCard(
        name="fault-mlp",
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
    spec = ClusterSpec(n_workers=3, jitter=NoJitter(), faults=crash(1, 2))
    plan = TrainingPlan(n_epochs=5, lr=0.1, momentum=0.9)
    engine = NumericEngine(card, train, test, spec, batch_size=16, seed=0)
    trainer = DistributedTrainer(spec, plan, engine, ASP())
    res = trainer.run()
    assert res.best_metric > 0.6  # survivors finish the job
