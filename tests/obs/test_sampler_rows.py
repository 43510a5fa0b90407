"""The sampler's row store keeps each series' ring exactly.

A sampled elastic job with a tiny ring (``capacity=8``) is compared with the
same job sampled into rings too large to wrap: replaying each unwrapped
series through per-sample :meth:`Series.append` into an 8-slot ring must
give the small run's ``times``, ``values``, ``last()`` and ``dropped``.
The departing worker's series stop mid-run and the joiner's start late, so
series skip ticks; every ring wraps."""

import numpy as np

from repro.core.osp import OSP
from repro.faults import FaultSchedule, WorkerJoin, WorkerLeave
from repro.harness.workloads import WorkloadConfig, timing_trainer
from repro.obs.timeseries import Series

CAPACITY = 8


def _sampled(capacity):
    cfg = WorkloadConfig(
        card_name="resnet50-cifar10",
        n_workers=4,
        n_epochs=5,
        iterations_per_epoch=4,
        sigma=0.1,
        seed=11,
        faults=FaultSchedule(
            (WorkerLeave(worker=1, epoch=2), WorkerJoin(worker=3, epoch=1))
        ),
    )
    trainer = timing_trainer(cfg, OSP())
    sampler = trainer.enable_sampling(capacity=capacity)
    trainer.run()
    return sampler


def test_small_rings_equal_per_series_appends():
    small = _sampled(CAPACITY)
    full = _sampled(4096)
    assert small.samples_taken == full.samples_taken > 3 * CAPACITY
    assert list(small.series) == list(full.series)
    lengths = {name: len(s) for name, s in full.series.items()}
    assert min(lengths.values()) > CAPACITY  # every ring wraps
    assert min(lengths.values()) < full.samples_taken  # some series skip ticks
    for name, whole in full.series.items():
        assert whole.dropped == 0
        ring = Series(name, CAPACITY)
        for t, v in zip(whole.times.tolist(), whole.values.tolist()):
            ring.append(t, v)
        got = small.series[name]
        assert np.array_equal(got.times, ring.times), name
        assert np.array_equal(got.values, ring.values), name
        assert got.last() == ring.last() == (whole.times[-1], whole.values[-1]), name
        assert got.dropped == ring.dropped == lengths[name] - CAPACITY, name
        assert len(got) == CAPACITY
