"""Tier-1 coverage for the fault-injection layer.

Every end-to-end run here goes through :func:`run_with_budget`, which
drives the event loop step-by-step under a hard step budget — a hang
(the failure mode fault injection must *prevent*) fails the test instead
of wedging the suite.
"""

import json
import re

import pytest

from repro.cluster import ClusterSpec, DistributedTrainer, TimingEngine, TrainingPlan
from repro.cluster.trainer import TrainingResult
from repro.core import OSP
from repro.faults import (
    BandwidthDip,
    FaultSchedule,
    LinkFlap,
    LossBurst,
    StragglerSlowdown,
    WorkerCrash,
    parse_faults,
)
from repro.hardware import NoJitter
from repro.netsim import LinkSpec, StarTopology
from repro.netsim.topology import route_loss
from repro.nn.models import get_card
from repro.simcore import Environment
from repro.simcore.resources import QuorumBarrier
from repro.sync import ASP, BSP
from tests.simcore.test_environment import next_event_time

pytestmark = pytest.mark.tier1


def make_trainer(sync, workers=4, epochs=4, ipe=4, faults=None):
    spec = ClusterSpec(n_workers=workers, jitter=NoJitter(), faults=faults)
    plan = TrainingPlan(n_epochs=epochs, iterations_per_epoch=ipe)
    engine = TimingEngine(
        get_card("resnet50-cifar10"), spec, total_iterations=epochs * ipe
    )
    return DistributedTrainer(spec, plan, engine, sync)


def run_with_budget(trainer, max_steps=500_000) -> TrainingResult:
    """trainer.run(), but stepping manually: asserts the simulation neither
    deadlocks (empty queue with workers unfinished) nor runs away."""
    trainer.sync_model.setup(trainer.ctx)
    procs = [
        trainer.env.process(trainer.sync_model.worker_process(trainer.ctx, w))
        for w in range(trainer.spec.n_workers)
    ]
    done = trainer.env.all_of(procs)
    steps = 0
    while not done.processed:
        assert next_event_time(trainer.env) != float("inf"), (
            "simulation deadlocked: event queue drained with worker "
            "processes still pending"
        )
        trainer.env.step()
        steps += 1
        assert steps < max_steps, f"step budget ({max_steps}) exceeded"
    for p in procs:
        assert p.ok, p.value
    return TrainingResult(
        sync_name=trainer.sync_model.name,
        recorder=trainer.recorder,
        wall_time=trainer.env.now,
        context=trainer.ctx,
        iteration_end_time=trainer.recorder.end_time(),
    )


# ---------------------------------------------------------------- QuorumBarrier
def test_quorum_barrier_trips_on_full_quorum():
    env = Environment()
    b = QuorumBarrier(env, 2)
    ev1, ev2 = b.wait(), b.wait()
    env.run()
    assert ev1.value == 0 and ev2.value == 0
    assert b._generation == 1 and b.last_trip_size == 2


def test_quorum_barrier_timeout_releases_degraded_quorum():
    env = Environment()
    degraded = []
    b = QuorumBarrier(env, 3, timeout=5.0, on_degraded=lambda g, n: degraded.append((g, n)))
    ev = b.wait()
    b.wait()
    env.run()
    assert env.now == pytest.approx(5.0)  # released at the deadline, not hung
    assert ev.value == 0
    assert degraded == [(0, 2)]
    assert b.last_trip_size == 2


def test_quorum_barrier_timeout_is_per_generation():
    """A full-quorum trip before the deadline must invalidate the timer."""
    env = Environment()
    degraded = []
    b = QuorumBarrier(env, 2, timeout=5.0, on_degraded=lambda g, n: degraded.append(g))
    b.wait()
    b.wait()  # trips immediately at t=0
    env.run()  # the armed t=5 timer fires but must be ignored
    assert b._generation == 1
    assert degraded == []


def test_quorum_barrier_set_parties_releases_waiters():
    env = Environment()
    b = QuorumBarrier(env, 3)
    ev = b.wait()
    b.wait()
    b.set_parties(2)  # a third party died: the two arrived form the quorum
    env.run()
    assert ev.value == 0
    assert b._generation == 1


def test_quorum_barrier_validation():
    env = Environment()
    with pytest.raises(ValueError):
        QuorumBarrier(env, 0)
    with pytest.raises(ValueError):
        QuorumBarrier(env, 2, timeout=0.0)
    with pytest.raises(ValueError):
        QuorumBarrier(env, 2).set_parties(0)


# ---------------------------------------------------------------- schedule
def test_fault_schedule_validation():
    with pytest.raises(ValueError):
        LossBurst(start=-1.0, duration=1.0)
    with pytest.raises(ValueError):
        BandwidthDip(start=0.0, duration=0.0)
    with pytest.raises(ValueError):
        BandwidthDip(start=0.0, duration=1.0, factor=0.0)
    with pytest.raises(ValueError):
        StragglerSlowdown(worker=0, start=0.0, duration=1.0, factor=0.5)
    with pytest.raises(ValueError):
        WorkerCrash(worker=0, before_epoch=0)
    with pytest.raises(ValueError):
        WorkerCrash(worker=0, before_epoch=2, restart_epoch=2)
    with pytest.raises(ValueError):  # two crashes for one worker
        FaultSchedule(
            (WorkerCrash(0, before_epoch=1), WorkerCrash(0, before_epoch=2))
        )
    assert not FaultSchedule()
    assert FaultSchedule((LinkFlap(start=0.0, duration=1.0),))
    # An infinite window lasts to the end of the run.
    assert LinkFlap(start=0.0, duration=float("inf")).duration == float("inf")


_NAN = float("nan")


@pytest.mark.parametrize(
    "make",
    [
        lambda: LossBurst(start=_NAN, duration=1.0),
        lambda: LossBurst(start=0.0, duration=1.0, loss_rate=_NAN),
        lambda: BandwidthDip(start=_NAN, duration=1.0),
        lambda: BandwidthDip(start=0.0, duration=_NAN),
        lambda: BandwidthDip(start=0.0, duration=1.0, factor=_NAN),
        lambda: LinkFlap(start=0.0, duration=_NAN),
        lambda: StragglerSlowdown(worker=0, start=0.0, duration=1.0, factor=_NAN),
        lambda: StragglerSlowdown(worker=_NAN, start=0.0, duration=1.0),
        lambda: WorkerCrash(worker=0, before_epoch=_NAN),
        lambda: WorkerCrash(worker=0, before_epoch=1, restart_epoch=_NAN),
    ],
    ids=[
        "loss-start", "loss-rate", "dip-start", "dip-duration", "dip-factor",
        "flap-duration", "straggler-factor", "straggler-worker",
        "crash-before-epoch", "crash-restart-epoch",
    ],
)
def test_fault_schedule_rejects_nan(make):
    with pytest.raises(ValueError):
        make()


@pytest.mark.parametrize("worker", [1.5, True, "1"])
def test_straggler_worker_must_be_an_integer(worker):
    with pytest.raises(ValueError, match=re.escape(f"worker must be an integer in [0, inf), got {worker!r}")):
        StragglerSlowdown(worker=worker, start=0.0, duration=1.0)


def test_parse_faults_inline_and_file(tmp_path):
    spec = json.dumps(
        [
            {"kind": "loss_burst", "start": 1.0, "duration": 2.0, "loss_rate": 0.3},
            {"kind": "bandwidth_dip", "start": 0.5, "duration": 1.0, "factor": 0.25,
             "nodes": [0, 2]},
            {"kind": "straggler", "worker": 1, "start": 0.0, "duration": 9.0,
             "factor": 3.0},
            {"kind": "worker_crash", "worker": 2, "before_epoch": 2,
             "restart_epoch": 4},
        ]
    )
    sched = parse_faults(spec)
    assert len(sched) == 4
    assert sched.network_events[1].nodes == (0, 2)
    assert sched.events[3].restart_epoch == 4

    path = tmp_path / "faults.json"
    path.write_text(json.dumps({"events": json.loads(spec)}))
    assert parse_faults(path) == sched

    with pytest.raises(ValueError):
        parse_faults('[{"kind": "meteor_strike", "start": 0, "duration": 1}]')
    with pytest.raises(ValueError):
        parse_faults('[{"start": 0, "duration": 1}]')


#: Stream digest and virtual end of the OSP run below: two stacked loss
#: bursts, one over the whole fabric and one on two nodes' links. A flow's
#: loss is folded once per route and cached; the cache must follow every
#: burst the injector applies and clears.
LOSS_BURST_GOLDEN = (
    "1acfbf50a0a6dbd4dfb4ad4741949c4ed2e515ce7ce91d9efa8b8831b3f32f79",
    15.105417399392064,
)


def test_loss_burst_run_keeps_its_golden():
    from repro.check import capture_stream, stream_digest

    faults = FaultSchedule((
        LossBurst(start=0.5, duration=2.0, loss_rate=0.4),
        LossBurst(start=1.0, duration=3.0, loss_rate=0.2, nodes=(1, 2)),
    ))  # fmt: skip
    trainer = make_trainer(OSP(), workers=4, epochs=3, ipe=4, faults=faults)
    result = trainer.run()
    assert result.recorder.counter("faults.loss_burst") == 2
    digest = stream_digest(capture_stream(trainer, result))
    assert (digest, result.wall_time) == LOSS_BURST_GOLDEN


def test_link_fault_state_composes_and_reverts():
    from repro.netsim.links import Link

    link = Link("up:0", LinkSpec(bandwidth=100.0, loss_rate=0.1))
    link.apply_fault(bandwidth_factor=0.5, extra_loss=0.2)
    link.apply_fault(extra_loss=0.5)  # nested burst
    assert link.bandwidth == pytest.approx(50.0)
    assert link.loss_rate == pytest.approx(1 - 0.9 * 0.8 * 0.5)
    link.clear_fault(extra_loss=0.5)
    link.clear_fault(bandwidth_factor=0.5, extra_loss=0.2)
    assert link.bandwidth == 100.0 and link.loss_rate == pytest.approx(0.1)


def test_route_loss_reflects_active_burst():
    topo = StarTopology(3, default_spec=LinkSpec(bandwidth=100.0, loss_rate=0.0))
    base = route_loss(topo.route(0, 2))
    topo.uplinks[0].apply_fault(extra_loss=0.5)
    assert route_loss(topo.route(0, 2)) == pytest.approx(0.5)
    topo.uplinks[0].clear_fault(extra_loss=0.5)
    assert route_loss(topo.route(0, 2)) == base


# ---------------------------------------------------------------- stragglers
def test_straggler_slowdown_raises_bst_tail():
    """A deterministic mid-run straggler makes the other BSP workers wait:
    the sync-time tail (p90) must rise while the median stays put."""
    base = run_with_budget(make_trainer(BSP(), workers=4, epochs=4, ipe=4))
    window = StragglerSlowdown(
        worker=1,
        start=0.25 * base.wall_time,
        duration=0.5 * base.wall_time,
        factor=4.0,
    )
    slow = run_with_budget(
        make_trainer(BSP(), workers=4, epochs=4, ipe=4,
                     faults=FaultSchedule((window,)))
    )
    assert slow.recorder.counter("faults.straggler") == 1
    assert slow.recorder.bst_percentile(90) > 1.5 * base.recorder.bst_percentile(90)
    assert slow.wall_time > base.wall_time


# ---------------------------------------------------------------- crashes
def test_osp_crash_completes_via_degraded_quorum():
    """A worker dying mid-run must shrink the RS quorum (and the matching
    ICS quorum) instead of deadlocking the barrier-based OSP."""
    faults = FaultSchedule((WorkerCrash(worker=2, before_epoch=2),))
    trainer = make_trainer(
        OSP(fixed_budget_fraction=0.3), workers=4, epochs=4, ipe=4, faults=faults
    )
    res = run_with_budget(trainer)
    per_worker = {}
    for r in res.recorder.iterations:
        per_worker[r.worker] = per_worker.get(r.worker, 0) + 1
    assert per_worker[2] == 2 * 4  # died after two epochs
    assert all(per_worker[w] == 4 * 4 for w in (0, 1, 3))
    assert len(res.recorder.epochs) == 4  # survivors completed every epoch
    assert res.recorder.counter("faults.worker_crash") == 1
    # every post-crash RS round aggregated a reduced quorum
    assert res.recorder.counter("osp.degraded_quorum") >= 2 * 4
    assert trainer.ctx.alive_workers == frozenset({0, 1, 3})


def test_worker_restart_rejoins_the_cluster():
    faults = FaultSchedule((WorkerCrash(worker=1, before_epoch=1, restart_epoch=3),))
    res = run_with_budget(
        make_trainer(ASP(), workers=3, epochs=5, ipe=2, faults=faults)
    )
    per_worker = {}
    for r in res.recorder.iterations:
        per_worker[r.worker] = per_worker.get(r.worker, 0) + 1
    # worker 1 ran epoch 0, sat out 1-2, ran 3-4.
    assert per_worker[1] == 3 * 2
    assert all(per_worker[w] == 5 * 2 for w in (0, 2))
    assert res.recorder.counter("faults.worker_crash") == 1
    assert res.recorder.counter("faults.worker_restart") == 1
    assert res.context.alive_workers == frozenset({0, 1, 2})


def test_osp_restart_regrows_the_quorum():
    """Crash/restart with a barrier-based model: the quorum shrinks, then
    grows back, and the rejoined worker participates in full rounds."""
    faults = FaultSchedule((WorkerCrash(worker=0, before_epoch=1, restart_epoch=2),))
    res = run_with_budget(
        make_trainer(
            OSP(fixed_budget_fraction=0.3), workers=3, epochs=4, ipe=3, faults=faults
        )
    )
    per_worker = {}
    for r in res.recorder.iterations:
        per_worker[r.worker] = per_worker.get(r.worker, 0) + 1
    assert per_worker[0] == 3 * 3  # missed exactly epoch 1
    assert all(per_worker[w] == 4 * 3 for w in (1, 2))
    assert res.recorder.counter("faults.worker_restart") == 1
    assert res.context.alive_workers == frozenset({0, 1, 2})


# ---------------------------------------------------------------- §4.3 fallback
def test_blown_ics_deadlines_trigger_bsp_fallback_and_recovery():
    """A sustained fabric-wide bandwidth dip makes every ICS round blow its
    Eq. 5 deadline; after deadline_k consecutive misses OSP must pin the
    GIB all-important (BSP mode), and resume adaptive splitting afterwards."""
    base = run_with_budget(
        make_trainer(OSP(fixed_budget_fraction=0.3), workers=4, epochs=6, ipe=6)
    )
    assert base.recorder.counter("osp.deadline_miss") == 0  # healthy baseline
    assert base.recorder.counter("osp.bsp_fallback") == 0

    # factor 0.1 inflates the ~100 ms ICS drain past the ~540 ms compute
    # window (blown) while keeping RS rounds short enough that several
    # round closes land inside the dip.
    osp = OSP(fixed_budget_fraction=0.3, deadline_k=2, fallback_rounds=4)
    dip = BandwidthDip(
        start=0.3 * base.wall_time,
        duration=0.35 * base.wall_time,
        factor=0.1,
    )
    res = run_with_budget(
        make_trainer(osp, workers=4, epochs=6, ipe=6,
                     faults=FaultSchedule((dip,)))
    )
    assert res.recorder.counter("faults.bandwidth_dip") == 1
    assert res.recorder.counter("osp.deadline_miss") >= 2
    assert res.recorder.counter("osp.bsp_fallback") >= 1
    assert res.recorder.counter("osp.bsp_fallback_exit") >= 1
    assert osp._fallback_remaining == 0  # recovered by the end of the run
    assert osp.current_gib.n_important < len(osp.current_gib.layers)  # adaptive again
    assert res.wall_time > base.wall_time  # the dip cost real time


# ---------------------------------------------------------------- CLI
def test_cli_faults_flag(capsys, tmp_path):
    from repro.cli import main

    spec = [
        {"kind": "worker_crash", "worker": 1, "before_epoch": 2},
        {"kind": "loss_burst", "start": 0.5, "duration": 2.0, "loss_rate": 0.4},
    ]
    path = tmp_path / "faults.json"
    path.write_text(json.dumps(spec))
    for faults_arg in (json.dumps(spec), str(path)):
        code = main(
            [
                "run", "--workload", "resnet50-cifar10", "--sync", "osp",
                "--mode", "timing", "--workers", "3", "--epochs", "3",
                "--iterations", "2", "--json", "--faults", faults_arg,
            ]
        )
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["counters"]["faults.worker_crash"] == 1
        assert out["counters"]["faults.loss_burst"] == 1
        assert out["wall_time"] >= out["iteration_end_time"]


def test_cli_refuses_a_nan_fault_field(capsys):
    from repro.cli import main

    spec = '[{"kind":"straggler","worker":0,"start":0,"duration":1,"factor":NaN}]'
    code = main(
        [
            "run", "--sync", "osp", "--workers", "4", "--epochs", "2",
            "--iterations", "3", "--faults", spec,
        ]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --faults: [0].factor must be a real in [1, inf), got nan")
    assert len(err.strip().splitlines()) == 1


# ---------------------------------------------------------------- wall time
def test_wall_time_includes_ics_drain():
    res = run_with_budget(
        make_trainer(OSP(fixed_budget_fraction=0.5), workers=4, epochs=3, ipe=4)
    )
    assert res.iteration_end_time == res.recorder.end_time()
    # the final ICS pushes/pulls drain after the last recorded iteration
    assert res.wall_time > res.iteration_end_time
    # throughput stays defined against iteration time (comparability)
    assert res.throughput == res.recorder.throughput()
