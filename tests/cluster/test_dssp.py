"""Tests for DSSP (dynamic stale synchronous parallel)."""

import pytest

from repro.cluster import ClusterSpec, DistributedTrainer, TimingEngine, TrainingPlan
from repro.faults import FaultSchedule, WorkerJoin
from repro.faults import FaultSchedule, WorkerCrash
from repro.hardware import NoJitter, PersistentStraggler
from repro.nn.models import get_card
from repro.sync import DSSP


class RecordingDSSP(DSSP):
    """DSSP that records the bound in force at every epoch boundary."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.bound_history: list[tuple[int, int]] = []

    def on_epoch_end(self, ctx, epoch, train_loss, metric):
        super().on_epoch_end(ctx, epoch, train_loss, metric)
        self.bound_history.append((epoch, self.staleness))


def run(jitter, s_min=1, s_max=6, epochs=3, ipe=6, workers=4):
    spec = ClusterSpec(n_workers=workers, jitter=jitter)
    plan = TrainingPlan(n_epochs=epochs, iterations_per_epoch=ipe)
    engine = TimingEngine(
        get_card("resnet50-cifar10"), spec, total_iterations=epochs * ipe
    )
    sm = DSSP(s_min=s_min, s_max=s_max)
    res = DistributedTrainer(spec, plan, engine, sm).run()
    return res, sm


def test_dssp_validation():
    with pytest.raises(ValueError):
        DSSP(s_min=3, s_max=1)
    with pytest.raises(ValueError):
        DSSP(s_min=-1)
    with pytest.raises(ValueError):
        DSSP(window=0)


def test_dssp_homogeneous_tightens_to_smin():
    res, sm = run(NoJitter())
    assert sm.staleness == sm.s_min
    assert res.recorder.total_iterations == 3 * 6 * 4


def test_dssp_relaxes_under_heavy_straggler():
    res, sm = run(PersistentStraggler(slow_workers=[0], slow_factor=3.0))
    assert sm.staleness > sm.s_min


def test_dssp_bound_stays_in_range():
    for factor in (1.0, 1.5, 2.5, 5.0):
        jitter = PersistentStraggler(slow_workers=[0], slow_factor=factor)
        _res, sm = run(jitter)
        assert sm.s_min <= sm.staleness <= sm.s_max


def test_dssp_adapts_before_elastic_worker_joins():
    """Regression: a not-yet-joined worker's empty window froze adaptation.

    Worker 3 only joins at epoch 1; the bound must still relax during
    epoch 0 from the spread of the three workers actually running (the old
    code bailed out of ``_observe`` until *every* worker had samples, so
    the bound sat at ``s_min`` for the whole absence).
    """
    spec = ClusterSpec(
        n_workers=4,
        jitter=PersistentStraggler(slow_workers=[0], slow_factor=3.0),
        faults=FaultSchedule((WorkerJoin(worker=3, epoch=1),)),
    )
    plan = TrainingPlan(n_epochs=3, iterations_per_epoch=6)
    engine = TimingEngine(get_card("resnet50-cifar10"), spec, total_iterations=18)
    sm = RecordingDSSP(s_min=1, s_max=6)
    DistributedTrainer(spec, plan, engine, sm).run()
    bounds = dict(sm.bound_history)
    assert bounds[0] > sm.s_min  # adapted while worker 3 was still absent


def test_dssp_retightens_after_permanent_crash():
    """Regression: a crashed worker's frozen window pinned the bound.

    The slow worker relaxes the bound toward ``s_max`` in epochs 0-1, then
    crashes permanently; with only the three symmetric survivors left the
    spread collapses to ~1 and the bound must come back down to ``s_min``
    (the old code kept averaging the dead worker's frozen durations and
    held ``s_max`` forever).
    """
    spec = ClusterSpec(
        n_workers=4,
        jitter=PersistentStraggler(slow_workers=[0], slow_factor=3.0),
        faults=FaultSchedule((WorkerCrash(worker=0, before_epoch=2),)),
    )
    plan = TrainingPlan(n_epochs=4, iterations_per_epoch=6)
    engine = TimingEngine(get_card("resnet50-cifar10"), spec, total_iterations=24)
    sm = RecordingDSSP(s_min=1, s_max=6)
    res = DistributedTrainer(spec, plan, engine, sm).run()
    bounds = dict(sm.bound_history)
    assert bounds[1] > sm.s_min  # relaxed while the straggler was alive
    assert sm.staleness == sm.s_min  # retightened after the crash
    # Survivors actually finished the run (alive-aware floor: no deadlock
    # on the dead worker's frozen progress).
    survivors = {r.worker for r in res.recorder.iterations if r.iteration >= 18}
    assert survivors == {1, 2, 3}


def test_dssp_straggler_throughput_beats_tight_ssp():
    """DSSP's relaxed bound lets healthy workers run ahead of a persistent
    straggler, beating a tight fixed-s SSP. (Only observable in the
    compute-bound regime — a fast network — where the staleness bound is
    what blocks workers; on a saturated link everyone queues anyway.)"""
    from repro.netsim.links import LinkSpec
    from repro.sync import SSP

    jitter = PersistentStraggler(slow_workers=[0], slow_factor=3.0)
    fast_link = LinkSpec(bandwidth=12.5e9)  # 100 GbE: comm negligible

    def healthy_thr(sync):
        spec = ClusterSpec(n_workers=4, jitter=jitter, link=fast_link)
        plan = TrainingPlan(n_epochs=3, iterations_per_epoch=6)
        engine = TimingEngine(get_card("resnet50-cifar10"), spec, total_iterations=18)
        res = DistributedTrainer(spec, plan, engine, sync).run()
        # With a fixed iteration budget the straggler bounds *total* wall
        # time either way; the bound's benefit shows in how fast the
        # healthy workers progress.
        healthy = [r for r in res.recorder.iterations if r.worker != 0]
        span = max(r.start_time + r.compute_time + r.sync_time for r in healthy)
        return sum(r.samples for r in healthy) / span

    assert healthy_thr(DSSP(s_min=1, s_max=8)) > 1.1 * healthy_thr(SSP(staleness=1))
