"""Sync-model conformance matrix (ROADMAP item 1, the deterministic core).

Every model in ``repro.sync.__all__`` plus OSP runs every scenario — plain,
crashes with and without a restart (one spanning the first checkpoint, one
entering on its resume epoch), elastic leave + join, a join on the resume
epoch — and each cell must: evaluate every epoch, give each worker exactly
the epochs its membership timeline allows, stay green under the strict
invariant monitors, and resume from its first checkpoint to a stream
bit-identical to the uninterrupted run. A model added to
``repro.sync.__all__`` gets every cell without touching this file (give it
constructor arguments in ``ARGS`` if it needs any).

The stream digest of every crash and elastic cell that predates the one
membership timeline is pinned in ``golden_membership_digests.json``: those
runs are held bit-identical to the code before it, not only to themselves.
Never regenerate that file for a refactor.

Beside the timing matrix: a co-tenancy column (``plain`` as the one job of
``repro.multijob`` gives the direct run's stream), a numeric column (real
gradients, stateful codecs, ``recover="checkpoint"``), one CLI cell, and the
ordered span names of one worker-iteration per model.
"""

import json
from pathlib import Path

import pytest

import repro.sync as zoo
from repro.check import capture_stream, replay_resume, run_checked, stream_digest
from repro.cli import main
from repro.cluster import ClusterSpec, DistributedTrainer, NumericEngine, TrainingPlan
from repro.compression import RandomK, ResidualMemory, TopK
from repro.core import OSP
from repro.data import make_image_classification, train_test_split
from repro.faults.schedule import FaultSchedule, WorkerCrash, WorkerJoin, WorkerLeave
from repro.hardware import LognormalJitter
from repro.harness.workloads import WorkloadConfig, timing_trainer
from repro.multijob import JobSpec, MultiJobRunner
from repro.nn.models import MLP
from repro.nn.models.registry import ModelCard

pytestmark = pytest.mark.tier1

N_WORKERS, N_EPOCHS, IPE, EVERY = 4, 6, 4, 2

#: Constructor arguments for the models that need (or deserve) some.
ARGS = {
    "SSP": lambda: zoo.SSP(staleness=1),  # tight enough that the bound binds
    "SyncSwitch": lambda: zoo.SyncSwitch(switch_epoch=3),  # both phases run
    "CompressedBSP": lambda: zoo.CompressedBSP(TopK(0.1)),
}
MODELS = {
    name: ARGS.get(name, getattr(zoo, name))
    for name in zoo.__all__
    if name != "SyncModel"
}
MODELS["OSP"] = OSP
#: Spec overrides: ShardedBSP is only sharded with more than one PS.
SPEC = {"ShardedBSP": {"n_ps": 2}}


def _crash(before, restart=None, recover="cold"):
    return FaultSchedule(
        (WorkerCrash(1, before_epoch=before, restart_epoch=restart, recover=recover),)
    )


def _elastic(leave_epoch, join_epoch):
    return FaultSchedule(
        (WorkerLeave(worker=1, epoch=leave_epoch), WorkerJoin(worker=3, epoch=join_epoch))
    )


#: name -> (membership timeline, epochs run by the workers that do not run all six)
SCENARIOS = {
    "plain": (None, {}),
    "crash@2": (_crash(2), {1: 2}),
    "crash@3-restart@5": (_crash(3, 5), {1: 4}),
    # down across the first checkpoint (epoch 2): the restart must survive it
    "crash@1-restart@4": (_crash(1, 4), {1: 3}),
    # entering on the first checkpoint's resume epoch: the snapshot is taken
    # before the admission, so the resumed run must still admit the worker
    "crash@1-restart@2": (_crash(1, 2), {1: 5}),
    "join@2": (FaultSchedule((WorkerJoin(worker=3, epoch=2),)), {3: 4}),
    "leave@3-join@1": (_elastic(3, 1), {1: 3, 3: 5}),
    "leave@1-join@4": (_elastic(1, 4), {1: 1, 3: 2}),
}


def _check_cell(make, tmp_path, n_epochs, ipe, short_epochs):
    # Checkpointing is on under the monitors too: the pause is part of the run.
    checked = make(checkpoint_every=EVERY, checkpoint_dir=tmp_path / "checked")
    result, report = run_checked(checked, strict=True)
    assert report.ok, report.render()
    assert len(result.recorder.epochs) == n_epochs
    ran = {w: 0 for w in range(N_WORKERS)}
    for rec in result.recorder.iterations:
        ran[rec.worker] += 1
    assert ran == {w: short_epochs.get(w, n_epochs) * ipe for w in range(N_WORKERS)}
    replay = replay_resume(make, tmp_path, checkpoint_every=EVERY, trace=False)
    assert replay.identical, replay.render()
    return result


def _timing_trainer(model, scenario, **kw):
    cfg = WorkloadConfig(
        "resnet50-cifar10", n_workers=N_WORKERS, n_epochs=N_EPOCHS,
        iterations_per_epoch=IPE, sigma=0.4, seed=5, faults=SCENARIOS[scenario][0],
        **SPEC.get(model, {}),
    )  # fmt: skip
    return timing_trainer(cfg, MODELS[model](), **kw)


@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("model", MODELS)
def test_timing_cell(model, scenario, tmp_path):
    faults, short_epochs = SCENARIOS[scenario]
    result = _check_cell(
        lambda **kw: _timing_trainer(model, scenario, **kw),
        tmp_path, N_EPOCHS, IPE, short_epochs,
    )
    events = faults.membership_events if faults else ()
    kinds = [ev.kind for ev in events]
    restarts = [ev for ev in events if getattr(ev, "restart_epoch", None) is not None]
    counter = result.recorder.counter
    assert counter("faults.worker_crash") == kinds.count("worker_crash")
    assert counter("faults.worker_restart") == len(restarts)
    assert counter("elastic.worker_join") == kinds.count("worker_join")
    assert counter("elastic.worker_leave") == kinds.count("worker_leave")


# --------------------------------------------------------- co-tenancy column
@pytest.mark.parametrize("model", MODELS)
def test_multijob_plain_cell(model):
    """``plain`` as the one job of ``repro.multijob``: the identity
    placement on the runner's pool and network gives the direct stream."""
    cfg = WorkloadConfig(
        "resnet50-cifar10", n_workers=N_WORKERS, n_epochs=N_EPOCHS,
        iterations_per_epoch=IPE, sigma=0.4, seed=5, **SPEC.get(model, {}),
    )  # fmt: skip
    trainer = timing_trainer(cfg, MODELS[model]())
    direct = capture_stream(trainer, trainer.run())
    solo = MultiJobRunner(
        [JobSpec(name="solo", workload=cfg, sync_factory=MODELS[model])]
    ).run()
    result = solo["solo"].result
    assert result.context.placement.hosts == tuple(range(trainer.spec.n_nodes))
    assert stream_digest(capture_stream(result.context, result)) == stream_digest(direct)


# ------------------------------------------------------------ numeric column
TINY_CARD = ModelCard(
    name="tiny-mlp", family="resnet", dataset="synthetic", task="classification",
    paper_params=1_000_000, paper_flops_per_sample=1e8, paper_layers=4,
    batch_size=16, metric="top1",
    mini_factory=lambda seed: MLP([3 * 8 * 8, 16, 4], seed=seed),
)  # fmt: skip

NUMERIC_MODELS = {
    "BSP": zoo.BSP,
    "SSP": MODELS["SSP"],
    "OSP": OSP,
    "CompressedBSP-residual-topk": lambda: zoo.CompressedBSP(ResidualMemory(TopK(0.1))),
    "CompressedBSP-randomk": lambda: zoo.CompressedBSP(RandomK(0.1, seed=3)),
}
NUMERIC_EPOCHS = 4
NUMERIC_SCENARIOS = {
    "plain": (None, {}),
    # down across the checkpoint, back from the checkpointed replica
    "crash@1-restart@3-from-checkpoint": (_crash(1, 3, recover="checkpoint"), {1: 2}),
}


@pytest.fixture(scope="module")
def data():
    ds = make_image_classification(512, n_classes=4, image_size=8, noise=1.5, seed=0)
    return train_test_split(ds, test_fraction=0.25, seed=1)


def _numeric_trainer(model, scenario, data, **kw):
    spec = ClusterSpec(
        n_workers=N_WORKERS,
        jitter=LognormalJitter(sigma=0.4, seed=5),
        faults=NUMERIC_SCENARIOS[scenario][0],
    )
    plan = TrainingPlan(n_epochs=NUMERIC_EPOCHS, lr=0.1, momentum=0.9)
    engine = NumericEngine(TINY_CARD, *data, spec, batch_size=16, seed=0)
    return DistributedTrainer(spec, plan, engine, NUMERIC_MODELS[model](), **kw)


@pytest.mark.parametrize("scenario", NUMERIC_SCENARIOS)
@pytest.mark.parametrize("model", NUMERIC_MODELS)
def test_numeric_cell(model, scenario, data, tmp_path):
    faults, short_epochs = NUMERIC_SCENARIOS[scenario]

    def make(**kw):
        return _numeric_trainer(model, scenario, data, **kw)

    ipe = make().iterations_per_epoch
    result = _check_cell(make, tmp_path, NUMERIC_EPOCHS, ipe, short_epochs)
    if faults is not None:
        assert result.recorder.counter("ckpt.worker_recover") == 1


# ------------------------------------------------------------ pinned digests
PINNED = json.loads(
    Path(__file__).with_name("golden_membership_digests.json").read_text()
)


@pytest.mark.parametrize("cell", sorted(PINNED))
def test_membership_cell_digest_is_pinned(cell, data, tmp_path):
    """``{column}/{model}/{scenario}``, run with checkpointing on as in its
    cell, streams exactly what the code before the membership timeline did."""
    column, model, scenario = cell.split("/")
    kw = {"checkpoint_every": EVERY, "checkpoint_dir": tmp_path}
    trainer = (
        _timing_trainer(model, scenario, **kw)
        if column == "timing"
        else _numeric_trainer(model, scenario, data, **kw)
    )
    assert stream_digest(capture_stream(trainer, trainer.run())) == PINNED[cell]


# ------------------------------------------------------------------ CLI cell
def test_cli_bsp_survives_a_crash(capsys):
    """The paper's own baseline under the crash OSP is compared on: a
    traceback at the parent of this test's PR, a degraded-quorum run now."""
    code = main([
        "run", "--sync", "bsp", "--workers", "4", "--epochs", "3", "--iterations", "4",
        "--faults", '[{"kind":"worker_crash","worker":1,"before_epoch":1}]', "--json",
    ])  # fmt: skip
    assert code == 0
    counters = json.loads(capsys.readouterr().out)["counters"]
    assert counters["faults.worker_crash"] == 1
    assert counters["osp.degraded_quorum"] > 0


# ---------------------------------------------------------------- span order
_ROUND = ["rs_push", "rs_barrier_wait", "rs_pull"]
_ASYNC = ["push", "pull"]
#: model -> span names of one worker-iteration below ``sync``, in start order
SPAN_ORDER = {
    "ASP": _ASYNC, "SSP": _ASYNC, "DSSP": _ASYNC, "R2SP": _ASYNC,
    "BSP": _ROUND, "CompressedBSP": _ROUND, "ShardedBSP": _ROUND, "WFBP": _ROUND,
    "SyncSwitch": _ROUND,  # iteration 1 is in its BSP phase
    "OSP": _ROUND + ["ics_push", "ics_wait", "ics_pull"],
}  # fmt: skip


def _spans_of(tracer, worker, iteration):
    spans = [s for s in tracer.spans if s.worker == worker and s.iteration == iteration]
    return sorted(spans, key=lambda s: (s.start, s.sid))


@pytest.mark.parametrize("model", MODELS)
def test_span_order_of_one_worker_iteration(model):
    cfg = WorkloadConfig(
        "resnet50-cifar10", n_workers=N_WORKERS, n_epochs=N_EPOCHS,
        iterations_per_epoch=IPE, sigma=0.4, seed=5, **SPEC.get(model, {}),
    )
    trainer = timing_trainer(cfg, MODELS[model]())
    tracer = trainer.enable_tracing()
    trainer.run()
    # OSP defers nothing until Algorithm 1 has a budget: look late in the run.
    iteration = N_EPOCHS * IPE - 2 if model == "OSP" else 1
    spans = _spans_of(tracer, 0, iteration)
    names = [s.name for s in spans if s.name != "staleness_wait"]
    assert names == ["iteration", "compute", "sync"] + SPAN_ORDER[model]
    if model == "OSP":
        # ICS is what overlaps: it starts as the RS stage ends and is still
        # moving bytes while the next iteration computes.
        by_name = {s.name: s for s in spans}
        next_compute = next(
            s for s in _spans_of(tracer, 0, iteration + 1) if s.name == "compute"
        )
        assert by_name["ics_push"].start == by_name["sync"].end
        assert by_name["ics_pull"].end > next_compute.start
    waits = [s for s in tracer.spans if s.name == "staleness_wait"]
    if model == "SSP":  # staleness=1 at sigma 0.4: the bound does bind
        assert waits
    elif model != "DSSP":
        assert not waits
