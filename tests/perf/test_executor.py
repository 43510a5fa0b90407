"""Tests for the process-parallel sweep executor: parallel fan-out must
return exactly the sequential results, for any job count."""

import numpy as np
import pytest

from repro.core.osp import OSP
from repro.harness.stats import run_seeds
from repro.harness.sweep import sweep_bandwidth, sweep_jitter
from repro.harness.workloads import WorkloadConfig, timing_trainer
from repro.perf.executor import parallel_map
from repro.sync import ASP, BSP


def test_parallel_map_serial_equivalence():
    tasks = list(range(7))
    serial = [t * t for t in tasks]
    for jobs in (1, 2, 3):
        assert parallel_map(lambda t: t * t, tasks, jobs=jobs) == serial


def test_parallel_map_preserves_order_with_closures():
    # lambdas/closures must work (fork inheritance, never pickled)
    offset = 100
    got = parallel_map(lambda t: t + offset, [3, 1, 2], jobs=2)
    assert got == [103, 101, 102]


def test_parallel_map_rejects_bad_jobs():
    with pytest.raises(ValueError):
        parallel_map(lambda t: t, [1, 2], jobs=0)


def test_parallel_map_worker_seeding_is_deterministic():
    # tasks that (incorrectly) draw from the global RNG still get a fixed
    # per-index seed, so results are reproducible run-to-run
    def draw(_t):
        return float(np.random.random())

    a = parallel_map(draw, [0, 1, 2], jobs=2, seed_base=7)
    b = parallel_map(draw, [0, 1, 2], jobs=2, seed_base=7)
    assert a == b


@pytest.mark.parametrize("jobs", [2, 3])
def test_sweep_bandwidth_parallel_equals_serial(jobs):
    factories = (BSP, OSP)
    bandwidths = [1e9, 4e9]
    kwargs = dict(epochs=4, ipe=4, n_workers=4, seed=1)
    serial = sweep_bandwidth(factories, bandwidths, jobs=1, **kwargs)
    parallel = sweep_bandwidth(factories, bandwidths, jobs=jobs, **kwargs)
    assert serial == parallel  # SweepPoint is a frozen dataclass: == is exact


def test_sweep_jitter_parallel_equals_serial():
    factories = (ASP,)
    assert sweep_jitter(factories, [0.1, 0.3], epochs=4, ipe=4, jobs=1) == sweep_jitter(
        factories, [0.1, 0.3], epochs=4, ipe=4, jobs=2
    )


def test_run_seeds_parallel_equals_serial():
    cfg = WorkloadConfig("resnet50-cifar10", n_workers=4, n_epochs=4, seed=0)

    def factory(seed):
        return timing_trainer(
            WorkloadConfig(cfg.card_name, n_workers=4, n_epochs=4, seed=seed), OSP()
        )

    serial = run_seeds(factory, [0, 1, 2], jobs=1)
    parallel = run_seeds(factory, [0, 1, 2], jobs=3)
    assert serial == parallel
