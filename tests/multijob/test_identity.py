"""Single-job bit-identity: repro.multijob must be free when you're alone.

A solo job on an exclusive identity placement goes through every new
layer — the runner's network and placement, job tagging, the drain's
per-job attribution, the runner's driver process — and must still
produce a replay stream (iterations, epochs, counters, wall time)
bit-identical to the same workload run directly through
``DistributedTrainer``. This is the differential that
licenses routing *all* runs through the co-tenancy path.
"""

import pytest

from repro.check import capture_stream, first_divergence, stream_digest
from repro.core.osp import OSP
from repro.harness.workloads import WorkloadConfig, timing_trainer
from repro.multijob import JobSpec, MultiJobRunner
from repro.sync import ASP, BSP

_CFG = dict(n_workers=4, n_epochs=2, iterations_per_epoch=4, sigma=0.1, seed=7)


def _workload():
    return WorkloadConfig("vgg16-cifar10", **_CFG)


def _direct_stream(sync_factory):
    trainer = timing_trainer(_workload(), sync_factory())
    result = trainer.run()
    return capture_stream(trainer, result)


def _multijob_stream(sync_factory):
    res = MultiJobRunner(
        [JobSpec(name="solo", workload=_workload(), sync_factory=sync_factory)]
    ).run()
    result = res["solo"].result
    # TrainerContext carries ps/engine, which is all capture_stream needs
    return capture_stream(result.context, result)


@pytest.mark.parametrize("sync_factory", [OSP, BSP, ASP], ids=["osp", "bsp", "asp"])
def test_solo_job_stream_bit_identical_to_direct_run(sync_factory):
    direct = _direct_stream(sync_factory)
    multi = _multijob_stream(sync_factory)
    div = first_divergence(direct, multi)
    assert div is None, f"first divergence: {div}"
    assert stream_digest(direct) == stream_digest(multi)


def test_solo_job_metadata_matches_direct_run():
    trainer = timing_trainer(_workload(), OSP())
    direct = trainer.run()
    res = MultiJobRunner(
        [JobSpec(name="solo", workload=_workload(), sync_factory=OSP)]
    ).run()
    run = res["solo"]
    assert run.result.wall_time == direct.wall_time
    assert run.result.throughput == direct.throughput
    assert run.queue_wait == 0.0
    # identity placement: local node i IS pool host i
    assert run.placement.hosts == tuple(range(run.placement.hosts[-1] + 1))


def test_solo_job_recorder_gains_only_excluded_namespaces():
    """The multijob counters the runner adds must all live in namespaces
    the replay stream excludes — otherwise identity would be accidental."""
    from repro.check.replay import _EXCLUDED_COUNTER_PREFIXES

    trainer = timing_trainer(_workload(), OSP())
    direct = trainer.run()
    res = MultiJobRunner(
        [JobSpec(name="solo", workload=_workload(), sync_factory=OSP)]
    ).run()
    extra = set(res["solo"].result.recorder.counters) - set(
        direct.recorder.counters
    )
    assert extra  # the attribution counters do land on the recorder
    for name in extra:
        assert name.startswith(_EXCLUDED_COUNTER_PREFIXES), name


def test_shared_placement_with_cotenant_differs():
    """Sanity: the identity above is meaningful — on a plainly fair-shared
    fabric, a co-tenant on shared hosts splits the links and perturbs the
    timeline. (With priorities on, OSP's HIGH/URGENT stages preempt the
    NORMAL tenant and can be fully protected — that isolation is what
    ``tests/harness/test_priority.py`` holds.)"""
    runner = MultiJobRunner(
        [
            JobSpec(name="osp", workload=_workload(), sync_factory=OSP),
            JobSpec(name="other", workload=_workload(), sync_factory=BSP),
        ],
        placement="shared",
        slots_per_host=2,
        gpus_per_host=2,
    )
    runner.network.priorities = False
    pair = runner.run()

    solo = MultiJobRunner(
        [JobSpec(name="osp", workload=_workload(), sync_factory=OSP)]
    ).run()
    assert pair["osp"].result.wall_time > solo["osp"].result.wall_time
