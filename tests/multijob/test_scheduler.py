"""Admission policies: immediate, FIFO ordering, bandwidth headroom."""

import re

import pytest

from repro.harness.workloads import WorkloadConfig
from repro.multijob import JobSpec, MultiJobRunner
from repro.sync import BSP


def uniform_jobs(n_jobs, n_workers, n_epochs, iterations_per_epoch, seed):
    """``n_jobs`` same-shape BSP tenants (``j0``..) with per-job seeds."""
    return [
        JobSpec(
            name=f"j{i}",
            workload=WorkloadConfig(
                "vgg16-cifar10",
                n_workers=n_workers,
                n_epochs=n_epochs,
                iterations_per_epoch=iterations_per_epoch,
                sigma=0.1,
                seed=seed + i,
            ),
            sync_factory=BSP,
        )
        for i in range(n_jobs)
    ]


def _jobs(n, workers=2):
    return uniform_jobs(
        n, n_workers=workers, n_epochs=1, iterations_per_epoch=2, seed=3
    )


def test_immediate_starts_everyone_at_zero():
    res = MultiJobRunner(_jobs(3), admission="immediate").run()
    assert all(r.admitted == 0.0 for r in res.jobs.values())
    # exclusive default pool sized to fit all three at once
    assert res.n_hosts == sum(j.n_nodes for j in _jobs(3))


def test_fifo_serializes_on_a_tight_pool():
    jobs = _jobs(3)
    res = MultiJobRunner(jobs, n_hosts=jobs[0].n_nodes, admission="fifo").run()
    j0, j1, j2 = (res.jobs[f"j{i}"] for i in range(3))
    assert j0.admitted == 0.0
    assert j1.admitted == pytest.approx(j0.finished)
    assert j2.admitted == pytest.approx(j1.finished)
    assert j1.queue_wait > 0.0
    # per-job wall time excludes the queue wait
    assert j2.wall_time == pytest.approx(j2.finished - j2.admitted)


def test_fifo_preserves_submission_order_even_when_later_fits():
    # j0 (wide) can't fit until enough hosts free; j1 (narrow) COULD fit
    # immediately but must not overtake.
    def _named(name, workers, seed):
        j = uniform_jobs(
            1, n_workers=workers, n_epochs=1, iterations_per_epoch=2, seed=seed
        )[0]
        return JobSpec(name=name, workload=j.workload, sync_factory=j.sync_factory)

    wide = _named("wide", 4, 3)
    narrow = _named("narrow", 1, 9)
    blocker = _named("blocker", 2, 5)
    # pool of 5: blocker (3 nodes) admits first, wide (5 nodes) waits,
    # narrow (2 nodes) would fit beside blocker but queues behind wide.
    res = MultiJobRunner([blocker, wide, narrow], n_hosts=5, admission="fifo").run()
    assert res.jobs["blocker"].admitted == 0.0
    assert res.jobs[wide.name].admitted == pytest.approx(
        res.jobs["blocker"].finished
    )
    assert res.jobs[narrow.name].admitted >= res.jobs[wide.name].admitted


def test_bandwidth_gate_limits_concurrent_offered_load():
    jobs = _jobs(3)  # 2 workers each -> demand 2 lines/job
    # 9 hosts, headroom 0.5 -> capacity 4.5 lines: two jobs fit, not three
    res = MultiJobRunner(jobs, n_hosts=9, admission="bandwidth", headroom=0.5).run()
    admits = sorted(r.admitted for r in res.jobs.values())
    assert admits[0] == admits[1] == 0.0
    assert admits[2] > 0.0


def test_bandwidth_with_full_headroom_matches_fifo_placement_gate():
    jobs = _jobs(2)
    bw = MultiJobRunner(jobs, n_hosts=12, admission="bandwidth", headroom=1.0).run()
    fifo = MultiJobRunner(jobs, n_hosts=12, admission="fifo").run()
    assert [bw.jobs[j.name].admitted for j in jobs] == [
        fifo.jobs[j.name].admitted for j in jobs
    ]


def test_unplaceable_job_is_refused_at_construction():
    # The job needs 9 hosts: under fifo its driver used to wait forever.
    jobs = _jobs(1, workers=8)
    with pytest.raises(ValueError) as caught:
        MultiJobRunner(jobs, n_hosts=4, admission="fifo")
    assert str(caught.value) == (
        "job 'j0' can never be placed: fifo admission needs room for 9 nodes "
        "alone, and the exclusive pool of 4 hosts holds 4"
    )


def test_immediate_on_too_small_pool_is_refused_at_construction():
    # Each job fits alone, but immediate admission places both at once.
    jobs = _jobs(2)
    n = jobs[0].n_nodes
    with pytest.raises(ValueError, match=f"^job 'j1' can never be placed: immediate "
                       f"admission needs room for {2 * n} nodes at once, and the exclusive "
                       f"pool of {n} hosts holds {n}$"):
        MultiJobRunner(jobs, n_hosts=n, admission="immediate")
    MultiJobRunner(jobs, n_hosts=n, admission="fifo")


def test_runner_rejects_bad_config():
    with pytest.raises(ValueError, match="at least one job"):
        MultiJobRunner([])
    jobs = _jobs(1) + _jobs(1)
    with pytest.raises(ValueError, match="duplicate job names"):
        MultiJobRunner(jobs)
    with pytest.raises(ValueError, match="admission mode"):
        MultiJobRunner(_jobs(1), admission="bogus")
    with pytest.raises(ValueError, match="placement mode"):
        MultiJobRunner(_jobs(1), placement="bogus")


@pytest.mark.parametrize("headroom", [0.0, -1.0, float("nan"), float("inf")])
def test_runner_refuses_a_headroom_outside_zero_to_inf(headroom):
    with pytest.raises(ValueError, match=re.escape("headroom must be a real in (0, inf), got")):
        MultiJobRunner(_jobs(1), admission="bandwidth", headroom=headroom)


def test_bandwidth_refuses_a_job_it_could_never_admit():
    # 4 workers need 4 lines; 5 hosts at headroom 0.5 offer 2.5, so the
    # job would wait forever for a wake-up. The refusal names the job and
    # the smallest headroom that admits it.
    jobs = [_jobs(1)[0], _jobs(1, workers=4)[0]]
    jobs[1] = JobSpec(name="wide", workload=jobs[1].workload,
                      sync_factory=jobs[1].sync_factory)  # fmt: skip
    with pytest.raises(ValueError) as caught:
        MultiJobRunner(jobs, n_hosts=5, admission="bandwidth", headroom=0.5)
    assert str(caught.value) == (
        "job 'wide' can never be admitted: 4 workers at line rate exceed "
        "headroom 0.5 x 5 hosts (bandwidth admission needs headroom >= 4/5)"
    )
    res = MultiJobRunner(jobs, n_hosts=5, admission="bandwidth", headroom=0.8).run()
    assert res.jobs["wide"].admitted >= res.jobs["j0"].finished
