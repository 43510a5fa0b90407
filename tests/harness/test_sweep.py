"""Unit tests for the sweep module."""

import pytest

from repro.harness.sweep import (
    SweepPoint,
    speedup_over,
    sweep_bandwidth,
    sweep_jitter,
)
from repro.core import OSP
from repro.sync import ASP, BSP


def test_sweep_bandwidth_points_shape():
    pts = sweep_bandwidth([BSP], [1e9, 1e10], epochs=2, ipe=2, n_workers=2)
    assert len(pts) == 2
    assert {p.value for p in pts} == {1e9, 1e10}
    assert all(p.knob == "bandwidth" for p in pts)
    assert all(p.throughput > 0 for p in pts)


def test_sweep_rho_scales_with_bandwidth():
    pts = sweep_bandwidth([BSP], [1e9, 1e10], epochs=2, ipe=2, n_workers=2)
    by_bw = {p.value: p.comm_compute_ratio for p in pts}
    assert by_bw[1e10] == pytest.approx(10 * by_bw[1e9])


def test_sweep_bandwidth_rho_inverse_in_workers():
    by_n = {
        n: sweep_bandwidth([BSP], [1e9], n_workers=n, epochs=2, ipe=2)[0]
        for n in (2, 4)
    }
    assert by_n[2].comm_compute_ratio == pytest.approx(
        2 * by_n[4].comm_compute_ratio
    )


def test_sweep_bandwidth_past_default_jitter_streams():
    (pt,) = sweep_bandwidth((OSP,), [1e9], n_workers=96, epochs=1, ipe=2)
    assert pt.value == 1e9 and pt.throughput > 0


def test_sweep_jitter_runs():
    pts = sweep_jitter([BSP], [0.0, 0.3], epochs=2, ipe=2, n_workers=2)
    assert {p.value for p in pts} == {0.0, 0.3}


def test_speedup_over_pairs():
    pts = [
        SweepPoint("bandwidth", 1.0, "bsp", 100.0, 0.1, 1.0),
        SweepPoint("bandwidth", 1.0, "osp", 150.0, 0.05, 1.0),
        SweepPoint("bandwidth", 2.0, "bsp", 200.0, 0.1, 2.0),
        SweepPoint("bandwidth", 2.0, "osp", 220.0, 0.05, 2.0),
    ]
    out = speedup_over(pts, "bsp", "osp")
    assert out == [(1.0, 1.5), (2.0, pytest.approx(1.1))]


def test_speedup_over_missing_base_skipped():
    pts = [SweepPoint("bandwidth", 1.0, "osp", 150.0, 0.05, 1.0)]
    assert speedup_over(pts, "bsp", "osp") == []


def test_sweep_throughput_rises_with_bandwidth():
    pts = sweep_bandwidth([ASP], [1e8, 1e10], epochs=3, ipe=3, n_workers=4)
    by_bw = {p.value: p.throughput for p in pts}
    assert by_bw[1e10] > by_bw[1e8]
