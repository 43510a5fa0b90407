"""ShardedBSP under fire: fault injection and elastic membership.

The multi-PS quorum barrier and the alive-set apply threshold are the two
pieces that make ShardedBSP safe under churn; each scenario here targets
one of them. Hangs are the failure mode (a dead worker stuck in a full
barrier), so the end-to-end runs go through a step-budget driver rather
than ``trainer.run()``.
"""

import pytest

from repro.faults.schedule import FaultSchedule, LinkFlap, WorkerCrash, WorkerJoin, WorkerLeave
from repro.harness.workloads import WorkloadConfig, timing_trainer
from repro.sync import ShardedBSP
from tests.simcore.test_environment import next_event_time

pytestmark = pytest.mark.tier1


def _run(n_ps=2, n_workers=4, n_epochs=4, faults=None, max_steps=500_000):
    cfg = WorkloadConfig(
        "resnet50-cifar10",
        n_workers=n_workers,
        n_epochs=n_epochs,
        iterations_per_epoch=3,
        n_ps=n_ps,
        faults=faults,
    )
    trainer = timing_trainer(cfg, ShardedBSP())
    # step manually under a budget: a barrier hang fails instead of wedging
    trainer.sync_model.setup(trainer.ctx)
    procs = [
        trainer.env.process(
            trainer.sync_model.worker_process(trainer.ctx, w)
        )
        for w in range(trainer.spec.n_workers)
    ]
    done = trainer.env.all_of(procs)
    steps = 0
    while not done.processed:
        assert next_event_time(trainer.env) != float("inf"), (
            "ShardedBSP deadlocked: queue drained with workers pending"
        )
        trainer.env.step()
        steps += 1
        assert steps < max_steps, f"step budget ({max_steps}) exceeded"
    for p in procs:
        assert p.ok, p.value
    return trainer


def _iters_by_worker(trainer):
    by_worker = {}
    for rec in trainer.recorder.iterations:
        by_worker[rec.worker] = by_worker.get(rec.worker, 0) + 1
    return by_worker


def test_crash_and_cold_restart_resyncs_all_shards():
    faults = FaultSchedule(
        (WorkerCrash(worker=1, before_epoch=2, restart_epoch=3),)
    )
    trainer = _run(faults=faults)
    # back in the alive set, and it sat out exactly one epoch
    assert sorted(trainer.ctx.alive_workers) == [0, 1, 2, 3]
    assert _iters_by_worker(trainer) == {0: 12, 1: 9, 2: 12, 3: 12}
    assert trainer.recorder.counter("faults.worker_restart") == 1


def test_link_flap_during_shard_push_stretches_not_hangs():
    clean = _run()
    clean_wall = clean.env.now
    # darken worker 0's links across a window that overlaps its shard
    # pushes mid-run; the fluid flows stall and then drain — no deadlock
    faults = FaultSchedule(
        (LinkFlap(start=clean_wall * 0.25, duration=clean_wall * 0.2,
                  nodes=(0,)),)
    )
    flapped = _run(faults=faults)
    assert flapped.env.now > clean_wall
    # BSP semantics survive: every worker still ran the full schedule
    assert _iters_by_worker(flapped) == {w: 12 for w in range(4)}
    # both PS shards saw every worker's pushes
    pushes = [
        r.tag for r in flapped.ctx.network.records
        if isinstance(r.tag, tuple) and r.tag[0] == "sbsp-push"
    ]
    for ps in range(2):
        assert sum(1 for t in pushes if t[3] == ps) == 4 * 12


def test_elastic_join_at_epoch_boundary_raises_apply_threshold():
    trainer = _run(faults=FaultSchedule((WorkerJoin(worker=3, epoch=2),)))
    assert sorted(trainer.ctx.alive_workers) == [0, 1, 2, 3]
    assert trainer.recorder.counter("elastic.worker_join") == 1
    # joiner trained epochs 2..3 only; the apply threshold tracked the
    # alive set, so the incumbents' first epochs applied at quorum 3
    assert _iters_by_worker(trainer) == {0: 12, 1: 12, 2: 12, 3: 6}


def test_elastic_join_then_leave_with_sharded_ps():
    m = FaultSchedule((WorkerJoin(worker=3, epoch=1), WorkerLeave(worker=0, epoch=3)))
    trainer = _run(faults=m)
    assert sorted(trainer.ctx.alive_workers) == [1, 2, 3]
    assert _iters_by_worker(trainer) == {0: 9, 1: 12, 2: 12, 3: 9}
    # shard plan is membership-independent: still n_ps shards, all used
    pulls = {
        r.tag[3] for r in trainer.ctx.network.records
        if isinstance(r.tag, tuple) and r.tag[0] == "sbsp-pull"
    }
    assert pulls == {0, 1}


def test_crash_with_sharded_ps_keeps_shard_fanout():
    # even with a casualty, every surviving iteration pushes to all shards
    faults = FaultSchedule((WorkerCrash(worker=2, before_epoch=3),))
    trainer = _run(n_ps=3, faults=faults)
    pushes = [
        r.tag for r in trainer.ctx.network.records
        if isinstance(r.tag, tuple) and r.tag[0] == "sbsp-push"
    ]
    total_iters = sum(_iters_by_worker(trainer).values())
    assert len(pushes) == 3 * total_iters
