"""Elastic membership: worker join/leave at epoch boundaries, with the OSP
ICS budget (Eq. 5 U_max) re-derived for the new cluster size. Joins and
leaves are events of the fault schedule, beside crashes: one membership
timeline per worker."""

import pytest

from repro.cluster.spec import ClusterSpec
from repro.core import OSP
from repro.core.tuning import ics_upper_bound
from repro.faults.schedule import FaultSchedule, WorkerCrash, WorkerJoin, WorkerLeave
from repro.harness.workloads import WorkloadConfig, timing_trainer


def run_elastic(*events, sync=None, n_workers=4, n_epochs=6):
    cfg = WorkloadConfig(
        "resnet50-cifar10",
        n_workers=n_workers,
        n_epochs=n_epochs,
        iterations_per_epoch=3,
        faults=FaultSchedule(events),
    )
    sync = sync or OSP()
    trainer = timing_trainer(cfg, sync)
    return trainer, sync, trainer.run()


def test_join_and_leave_change_alive_set_and_counters():
    trainer, _sync, res = run_elastic(WorkerJoin(worker=3, epoch=2), WorkerLeave(worker=0, epoch=4))
    assert sorted(res.context.alive_workers) == [1, 2, 3]
    assert res.recorder.counter("elastic.worker_join") == 1
    assert res.recorder.counter("elastic.worker_leave") == 1
    # The joiner trained epochs 2..5, the leaver epochs 0..3; everyone else
    # trained all 6; 3 iterations per epoch each.
    by_worker = {}
    for rec in res.recorder.iterations:
        by_worker[rec.worker] = by_worker.get(rec.worker, 0) + 1
    assert by_worker == {0: 12, 1: 18, 2: 18, 3: 12}


def test_u_max_recomputed_for_new_cluster_size():
    trainer, sync, res = run_elastic(WorkerLeave(worker=0, epoch=3))
    assert sorted(res.context.alive_workers) == [1, 2, 3]
    spec, engine = trainer.spec, trainer.engine
    route_loss = 1.0 - (1.0 - spec.link.loss_rate) ** 2
    expected = ics_upper_bound(
        bandwidth=spec.link.bandwidth,
        loss_rate=route_loss,
        compute_time=engine.base_compute_time(spec),
        n_workers=3,  # Eq. 5: N is the post-leave alive count
        model_bytes=engine.model_bytes,
        max_model_fraction=sync.max_model_fraction,
    )
    assert sync._tuner.u_max == pytest.approx(expected)


def test_membership_changes_visible_in_trace():
    cfg = WorkloadConfig(
        "resnet50-cifar10",
        n_workers=4,
        n_epochs=4,
        iterations_per_epoch=3,
        faults=FaultSchedule((WorkerJoin(worker=3, epoch=2),)),
    )
    trainer = timing_trainer(cfg, OSP())
    tracer = trainer.enable_tracing()
    trainer.run()
    names = [inst.name for inst in tracer.instants]
    assert "elastic.worker_join" in names
    # the U_max gauge is re-emitted when the membership hook fires
    assert len(tracer.counters["osp.u_max"]) >= 2


def test_membership_schedule_validation():
    with pytest.raises(ValueError, match=r"^epoch must be an integer in \[1, inf\), got 0$"):
        WorkerJoin(worker=0, epoch=0)
    with pytest.raises(ValueError, match="more than one worker_join"):
        FaultSchedule((WorkerJoin(worker=1, epoch=2), WorkerJoin(worker=1, epoch=3)))
    with pytest.raises(ValueError, match="more than one worker_crash"):
        FaultSchedule((WorkerCrash(1, before_epoch=2), WorkerCrash(1, before_epoch=3)))
    with pytest.raises(ValueError, match="leaves"):
        FaultSchedule((WorkerJoin(worker=1, epoch=3), WorkerLeave(worker=1, epoch=2)))
    # a worker cannot both crash and have a join or leave
    with pytest.raises(ValueError, match="both crashes and joins or leaves"):
        FaultSchedule((WorkerLeave(worker=1, epoch=3), WorkerCrash(worker=1, before_epoch=2)))


def test_spec_membership_validation():
    with pytest.raises(ValueError, match="unknown worker 9"):
        ClusterSpec(n_workers=4, faults=FaultSchedule((WorkerJoin(worker=9, epoch=2),)))
    # Nobody would finish the empty epoch, so the entry after it would wait
    # forever: every worker initially absent, both crashed until a restart,
    # or the only worker gone before the join.
    for empty, events in (
        (0, (WorkerJoin(0, 1), WorkerJoin(1, 1))),
        (1, (WorkerCrash(0, 1, restart_epoch=2), WorkerCrash(1, 1, restart_epoch=2))),
        (1, (WorkerLeave(0, 1), WorkerJoin(1, 2))),
    ):
        with pytest.raises(ValueError, match=f"no worker is in the cluster during epoch {empty}"):
            ClusterSpec(n_workers=2, faults=FaultSchedule(events))


def test_everyone_leaving_ends_the_run_early():
    _trainer, _sync, res = run_elastic(
        WorkerLeave(worker=0, epoch=2), WorkerLeave(worker=1, epoch=2), n_workers=2
    )
    assert res.context.alive_workers == frozenset()
    assert len(res.recorder.epochs) == 2
    assert res.recorder.counter("elastic.worker_leave") == 2
