"""Time-series plane: ring-buffer mechanics, registry enforcement, and the
non-perturbation property — sampled and unsampled runs are bit-identical."""

import numpy as np
import pytest

from repro.check import capture_stream, first_divergence
from repro.core.osp import OSP
from repro.harness.workloads import (
    WorkloadConfig,
    make_numeric_dataset,
    numeric_trainer,
    timing_trainer,
)
from repro.obs.registry import is_registered_track
from repro.obs.timeseries import MetricSampler, Series
from repro.sync import BSP, DSSP, SSP


class _Clock:
    def __init__(self):
        self.now = 0.0
        self.tracer = None


# --------------------------------------------------------------------- Series
def test_series_ring_wrap_keeps_newest_in_order():
    s = Series("timeseries.net.active_flows", capacity=4)
    for i in range(7):
        s.append(float(i), float(i * 10))
    assert len(s) == 4
    assert s.dropped == 3
    assert s.times.tolist() == [3.0, 4.0, 5.0, 6.0]
    assert s.values.tolist() == [30.0, 40.0, 50.0, 60.0]
    assert s.last() == (6.0, 60.0)


def test_series_before_wrap_and_empty():
    s = Series("timeseries.net.active_flows", capacity=8)
    assert len(s) == 0
    assert s.last() is None
    s.append(1.0, 2.0)
    assert s.times.tolist() == [1.0]
    assert s.dropped == 0
    with pytest.raises(ValueError):
        Series("timeseries.net.active_flows", capacity=0)


# --------------------------------------------------------------- MetricSampler
def test_series_for_rejects_unregistered_tracks():
    sampler = MetricSampler(_Clock(), interval=1.0)
    with pytest.raises(ValueError, match="unregistered time-series track"):
        sampler.series_for("timeseries.made_up.signal")
    with pytest.raises(ValueError, match="unregistered"):
        sampler.series_for("osp.worker.0.not_a_signal")
    # Registered names (template instantiations included) are accepted.
    sampler.series_for("timeseries.net.inflight_bytes")
    sampler.series_for("timeseries.link.up:3.utilization")
    sampler.series_for("osp.worker.2.compute_time")
    sampler.series_for("osp.inflight_ics_bytes")


def test_on_advance_samples_once_per_crossing():
    clock = _Clock()
    sampler = MetricSampler(clock, interval=1.0)
    seen = []
    sampler.add_probe(lambda now: [("timeseries.net.active_flows", now)])
    for t in (0.0, 0.4, 0.9, 1.0, 3.7, 3.8, 4.05):
        clock.now = t
        sampler.on_advance(t)
    s = sampler.series["timeseries.net.active_flows"]
    # Edges at 0, 1, 2, 3, 4 — the 3.7 event covers the 2.0 and 3.0 edges
    # with ONE sample (no catch-up storm), then 4.05 crosses the 4.0 edge.
    assert s.times.tolist() == [0.0, 1.0, 3.7, 4.05]
    assert sampler.samples_taken == 4


def test_sampler_rejects_bad_interval():
    with pytest.raises(ValueError):
        MetricSampler(_Clock(), interval=0.0)


# -------------------------------------------------------- registry coverage
def _cfg(**kw):
    defaults = dict(
        card_name="vgg16-cifar10",
        n_workers=4,
        n_epochs=3,
        iterations_per_epoch=6,
        sigma=0.1,
        seed=7,
    )
    defaults.update(kw)
    return WorkloadConfig(**defaults)


def test_every_sampled_track_is_registered():
    trainer = timing_trainer(_cfg(), OSP())
    sampler = trainer.enable_sampling()
    trainer.run()
    assert sampler.samples_taken > 0
    assert sampler.series, "sampler collected nothing"
    for name in sampler.series:
        assert is_registered_track(name), f"unregistered sampled track {name}"
    # The OSP health tracks must actually be present, not just permitted.
    for w in range(4):
        assert f"osp.worker.{w}.compute_time" in sampler.series
        assert f"osp.worker.{w}.ics_backlog_bytes" in sampler.series
    assert "timeseries.net.inflight_bytes" in sampler.series
    assert "timeseries.link.up:0.utilization" in sampler.series


@pytest.mark.parametrize("sync_cls", [BSP, SSP, DSSP])
def test_sampling_covers_every_sync_model(sync_cls):
    trainer = timing_trainer(_cfg(n_epochs=2, iterations_per_epoch=4), sync_cls())
    sampler = trainer.enable_sampling()
    trainer.run()
    for name in sampler.series:
        assert is_registered_track(name), f"unregistered sampled track {name}"
    assert "osp.worker.0.staleness" in sampler.series


# ------------------------------------------------------- non-perturbation
def test_sampling_is_bit_identical_numeric():
    cfg = WorkloadConfig(
        card_name="resnet50-cifar10",
        n_workers=3,
        n_epochs=2,
        iterations_per_epoch=4,
        sigma=0.1,
        seed=13,
    )
    data = make_numeric_dataset(cfg.card, n_samples=120, seed=cfg.seed)

    def run(sampled: bool):
        trainer = numeric_trainer(cfg, OSP(), data=data)
        if sampled:
            trainer.enable_sampling()
        result = trainer.run()
        return trainer, result

    t_plain, r_plain = run(sampled=False)
    t_sampled, r_sampled = run(sampled=True)
    assert r_sampled.sampler is not None
    assert r_sampled.sampler.samples_taken > 0
    # The full normalized event stream — every iteration float, counter,
    # the final-parameter SHA-256, the wall time — must be bit-identical.
    diff = first_divergence(
        capture_stream(t_plain, r_plain), capture_stream(t_sampled, r_sampled)
    )
    assert diff is None, f"sampling perturbed the run at event {diff}"


def test_sampling_is_bit_identical_timing():
    def run(sampled: bool):
        trainer = timing_trainer(_cfg(), OSP())
        if sampled:
            trainer.enable_sampling()
        result = trainer.run()
        return trainer, result

    t_plain, r_plain = run(sampled=False)
    t_sampled, r_sampled = run(sampled=True)
    assert first_divergence(
        capture_stream(t_plain, r_plain), capture_stream(t_sampled, r_sampled)
    ) is None
    # And identical again on a repeat sampled run (sampling is itself
    # deterministic, so dashboards are reproducible artifacts).
    t2, r2 = run(sampled=True)
    assert np.array_equal(
        r2.sampler.series["timeseries.net.inflight_bytes"].values,
        r_sampled.sampler.series["timeseries.net.inflight_bytes"].values,
    )
