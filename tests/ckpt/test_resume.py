"""Resume correctness: a run restored from a checkpoint must be
bit-identical to one that never stopped.

The comparison is over what the paper's metrics read — final PS
parameters, per-iteration loss curve, and epoch records — not over raw
checkpoint bytes (a resumed run's recorder legitimately differs by one
``ckpt.restore`` counter).
"""

import numpy as np
import pytest

from repro.ckpt import CheckpointError, load_checkpoint, params_plane
from repro.cluster import ClusterSpec, DistributedTrainer, NumericEngine, TrainingPlan
from repro.core import OSP
from repro.data import make_image_classification, train_test_split
from repro.faults.schedule import FaultSchedule, WorkerCrash
from repro.hardware import LognormalJitter
from repro.harness.workloads import WorkloadConfig, timing_trainer
from repro.nn.models import MLP
from repro.nn.models.registry import ModelCard
from repro.sync import BSP

TINY_CARD = ModelCard(
    name="tiny-mlp",
    family="resnet",
    dataset="synthetic",
    task="classification",
    paper_params=1_000_000,
    paper_flops_per_sample=1e8,
    paper_layers=4,
    batch_size=16,
    metric="top1",
    mini_factory=lambda seed: MLP([3 * 8 * 8, 16, 4], seed=seed),
)

#: Crash/restart cycle that spans the mid-run checkpoint at epoch 2.
CRASH = FaultSchedule(
    (WorkerCrash(worker=1, before_epoch=2, restart_epoch=4, recover="checkpoint"),)
)

N_EPOCHS = 6
EVERY = 2


@pytest.fixture(scope="module")
def data():
    ds = make_image_classification(240, n_classes=4, image_size=8, noise=1.5, seed=0)
    return train_test_split(ds, test_fraction=0.25, seed=1)


def make_numeric(data, ckpt_dir, resume_from=None, faults=CRASH):
    train, test = data
    spec = ClusterSpec(
        n_workers=3, jitter=LognormalJitter(sigma=0.1, seed=0), faults=faults
    )
    plan = TrainingPlan(n_epochs=N_EPOCHS, lr=0.1, momentum=0.9)
    engine = NumericEngine(TINY_CARD, train, test, spec, batch_size=16, seed=0)
    return DistributedTrainer(
        spec,
        plan,
        engine,
        OSP(),
        checkpoint_every=EVERY,
        checkpoint_dir=ckpt_dir,
        resume_from=resume_from,
    )


def run_signature(trainer, result):
    return (
        params_plane(trainer.engine, trainer.ps),
        [r.loss for r in result.recorder.iterations],
        result.recorder.epochs,
        result.wall_time,
    )


def test_numeric_resume_bit_identical_with_crash(data, tmp_path):
    """save → restore → continue == uninterrupted, with a worker
    crash/restart cycle spanning the checkpoint."""
    base_t = make_numeric(data, tmp_path / "base")
    base_sig = run_signature(base_t, base_t.run())

    ckpt = tmp_path / "base" / f"ckpt-epoch{EVERY:04d}.npz"
    res_t = make_numeric(data, tmp_path / "resumed", resume_from=ckpt)
    res_sig = run_signature(res_t, res_t.run())

    assert np.array_equal(base_sig[0], res_sig[0])  # final parameters
    assert base_sig[1] == res_sig[1]  # loss curve
    assert base_sig[2] == res_sig[2]  # epoch records (times + metrics)
    assert base_sig[3] == res_sig[3]  # wall time

    # The crash replayed identically, and the restart recovered from the
    # checkpointed replica (recover="checkpoint"), in both runs.
    for rec in (base_t.recorder, res_t.recorder):
        assert rec.counter("faults.worker_crash") == 1
        assert rec.counter("faults.worker_restart") == 1
        assert rec.counter("ckpt.worker_recover") == 1
    assert res_t.recorder.counter("ckpt.restore") == 1
    assert base_t.recorder.counter("ckpt.restore") == 0


def test_resume_from_post_restart_checkpoint(data, tmp_path):
    """Resuming from the checkpoint *after* the restart also continues
    bit-identically (the revived worker is plain alive state by then)."""
    base_t = make_numeric(data, tmp_path / "base")
    base_sig = run_signature(base_t, base_t.run())

    ckpt = tmp_path / "base" / "ckpt-epoch0004.npz"
    res_t = make_numeric(data, tmp_path / "resumed", resume_from=ckpt)
    res_sig = run_signature(res_t, res_t.run())
    assert np.array_equal(base_sig[0], res_sig[0])
    assert base_sig[1] == res_sig[1]
    assert base_sig[3] == res_sig[3]


def test_timing_resume_bit_identical(tmp_path):
    cfg = WorkloadConfig(
        "resnet50-cifar10", n_workers=4, n_epochs=6, iterations_per_epoch=3
    )
    base = timing_trainer(
        cfg, OSP(), checkpoint_every=2, checkpoint_dir=tmp_path / "base"
    ).run()
    res = timing_trainer(
        cfg,
        OSP(),
        checkpoint_every=2,
        checkpoint_dir=tmp_path / "resumed",
        resume_from=tmp_path / "base" / "ckpt-epoch0002.npz",
    ).run()
    assert base.wall_time == res.wall_time
    assert base.recorder.iterations == res.recorder.iterations
    assert base.recorder.epochs == res.recorder.epochs


def test_discard_policy_counts_discarded_bytes(tmp_path):
    cfg = WorkloadConfig(
        "resnet50-cifar10", n_workers=4, n_epochs=4, iterations_per_epoch=3
    )
    res = timing_trainer(
        cfg,
        OSP(),
        checkpoint_every=2,
        checkpoint_dir=tmp_path,
        checkpoint_policy="discard",
    ).run()
    assert res.recorder.counter("ckpt.save") == 2
    ckpt = load_checkpoint(tmp_path / "ckpt-epoch0002.npz")
    assert ckpt.meta["ics"]["policy"] == "discard"
    assert ckpt.meta["ics"]["discarded_bytes"] >= 0.0


def test_resume_mismatches_rejected(data, tmp_path):
    base_t = make_numeric(data, tmp_path / "base")
    base_t.run()
    ckpt = tmp_path / "base" / "ckpt-epoch0002.npz"

    train, test = data
    # wrong sync model
    spec = ClusterSpec(n_workers=3, jitter=LognormalJitter(sigma=0.1, seed=0))
    plan = TrainingPlan(n_epochs=N_EPOCHS, lr=0.1, momentum=0.9)
    engine = NumericEngine(TINY_CARD, train, test, spec, batch_size=16, seed=0)
    with pytest.raises(CheckpointError, match="sync model"):
        DistributedTrainer(spec, plan, engine, BSP(), resume_from=ckpt)

    # wrong worker count
    spec2 = ClusterSpec(n_workers=4, jitter=LognormalJitter(sigma=0.1, seed=0))
    engine2 = NumericEngine(TINY_CARD, train, test, spec2, batch_size=16, seed=0)
    with pytest.raises(CheckpointError, match="workers"):
        DistributedTrainer(spec2, plan, engine2, OSP(), resume_from=ckpt)


def test_checkpoint_every_requires_dir(data):
    train, test = data
    spec = ClusterSpec(n_workers=2, jitter=LognormalJitter(sigma=0.1, seed=0))
    plan = TrainingPlan(n_epochs=2, lr=0.1, momentum=0.9)
    engine = NumericEngine(TINY_CARD, train, test, spec, batch_size=16, seed=0)
    with pytest.raises(ValueError, match="checkpoint_dir"):
        DistributedTrainer(spec, plan, engine, OSP(), checkpoint_every=1)
