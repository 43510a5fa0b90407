"""Time-series plane: ring-buffer mechanics, registry enforcement, and the
non-perturbation property — sampled and unsampled runs are bit-identical."""

import numpy as np
import pytest

from repro.check import capture_stream, first_divergence
from repro.core.osp import OSP
from repro.faults import BandwidthDip, FaultSchedule
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


def test_series_extend_equals_appends():
    """Every start state (empty, partly full, wrapped) and every batch size,
    including batches longer than the ring."""
    for cap in (1, 3, 4):
        for prefill in range(9):
            for n in range(10):
                by_append = Series("timeseries.net.active_flows", capacity=cap)
                by_extend = Series("timeseries.net.active_flows", capacity=cap)
                for i in range(prefill):
                    by_append.append(float(i), -float(i))
                    by_extend.append(float(i), -float(i))
                t = np.arange(prefill, prefill + n, dtype=np.float64)
                for ti in t:
                    by_append.append(ti, -ti)
                by_extend.extend(t, -t)
                case = (cap, prefill, n)
                assert by_extend.times.tolist() == by_append.times.tolist(), case
                assert by_extend.values.tolist() == by_append.values.tolist(), case
                assert by_extend.last() == by_append.last(), case
                assert (len(by_extend), by_extend.dropped) == (
                    len(by_append), by_append.dropped
                ), case


# --------------------------------------------------------------- MetricSampler
def _sample_track(name: str) -> MetricSampler:
    """A sampler after one tick of a probe that reports ``name``."""
    sampler = MetricSampler(_Clock(), interval=1.0)
    sampler.add_probe(lambda now: {name: 1.0})
    sampler.sample(0.0)
    return sampler


def test_sampling_rejects_unregistered_tracks():
    with pytest.raises(ValueError, match="unregistered time-series track"):
        _sample_track("timeseries.made_up.signal")
    with pytest.raises(ValueError, match="unregistered"):
        _sample_track("osp.worker.0.not_a_signal")
    # Registered names (template instantiations included) are accepted.
    for name in (
        "timeseries.net.inflight_bytes",
        "timeseries.link.up:3.utilization",
        "osp.worker.2.compute_time",
        "osp.inflight_ics_bytes",
    ):
        assert list(_sample_track(name).series) == [name]


def test_on_advance_samples_once_per_crossing():
    clock = _Clock()
    sampler = MetricSampler(clock, interval=1.0)
    seen = []
    sampler.add_probe(lambda now: {"timeseries.net.active_flows": now})
    for t in (0.0, 0.4, 0.9, 1.0, 3.7, 3.8, 4.05):
        clock.now = t
        sampler.on_advance(t)
    s = sampler.series["timeseries.net.active_flows"]
    # Edges at 0, 1, 2, 3, 4 — the 3.7 event covers the 2.0 and 3.0 edges
    # with ONE sample (no catch-up storm), then 4.05 crosses the 4.0 edge.
    assert s.times.tolist() == [0.0, 1.0, 3.7, 4.05]
    assert sampler.samples_taken == 4


def test_pending_rows_never_outgrow_one_ring():
    clock = _Clock()
    sampler = MetricSampler(clock, interval=1.0, capacity=8)
    sampler.add_probe(lambda now: {"timeseries.net.active_flows": now})
    for t in range(100):
        clock.now = float(t)
        sampler.on_advance(clock.now)
        assert len(sampler._tick_t) < 8  # folded every `capacity` ticks
    s = sampler.series["timeseries.net.active_flows"]
    assert s.times.tolist() == [float(t) for t in range(92, 100)]
    assert s.dropped == 92


def test_sampler_rejects_bad_interval():
    with pytest.raises(ValueError):
        MetricSampler(_Clock(), interval=0.0)


@pytest.mark.parametrize("interval", [0, -1.0, float("nan"), float("inf"), -float("inf")])
def test_sampler_refuses_a_bad_interval_at_construction(interval):
    # nan used to construct and die mid-run; inf took one sample, silently.
    with pytest.raises(ValueError, match=r"^interval must be a real in \(0, inf\), got "):
        MetricSampler(_Clock(), interval=interval)


@pytest.mark.parametrize("capacity", [0, -3, 2.5, True, "8"])
def test_sampler_refuses_a_bad_capacity_at_construction(capacity):
    with pytest.raises(ValueError, match=r"^capacity must be an integer in \[1, inf\), got "):
        MetricSampler(_Clock(), interval=1.0, capacity=capacity)
    with pytest.raises(ValueError, match=r"^capacity must be an integer in \[1, inf\), got "):
        Series("timeseries.net.active_flows", capacity=capacity)


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


def test_net_gauges_equal_a_running_tally_of_the_flows_at_every_tick():
    """``obs.net.inflight_bytes`` and ``timeseries.net.active_flows`` at each
    tick equal a tally kept beside the network: the flows ``flow_hooks`` saw
    go on the wire, less those in ``Network.records`` (a loopback flow is
    recorded but never goes on the wire). Payloads are
    whole bytes, so the byte sum is exact whatever order it is added in."""
    cfg = _cfg(faults=FaultSchedule((BandwidthDip(start=1.0, duration=2.0, factor=0.5),)))
    trainer = timing_trainer(cfg, OSP())
    sampler = trainer.enable_sampling()
    net = trainer.network
    live: dict[int, float] = {}
    net.flow_hooks.append(lambda flow: live.__setitem__(flow.fid, flow.size))
    read = [0]  # records already taken off the tally
    ticks = []

    def tally(now):
        for record in net.records[read[0] :]:
            live.pop(record.fid, None)
        read[0] = len(net.records)
        assert all(size.is_integer() for size in live.values())
        ticks.append((now, float(sum(live.values())), float(len(live))))
        return {}

    sampler.add_probe(tally)
    trainer.run()
    inflight = sampler.series["obs.net.inflight_bytes"]
    active = sampler.series["timeseries.net.active_flows"]
    assert inflight.times.tolist() == active.times.tolist() == [t for t, _b, _n in ticks]
    assert inflight.values.tolist() == [b for _t, b, _n in ticks]
    assert active.values.tolist() == [n for _t, _b, n in ticks]
    assert max(n for _t, _b, n in ticks) > 1


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
