"""Unit tests for GPU specs, compute model, and jitter models."""

import re

import numpy as np
import pytest

from repro.hardware import (
    ComputeModel,
    GPU_CATALOG,
    GPUSpec,
    LognormalJitter,
    NoJitter,
    PersistentStraggler,
)
from repro.hardware.gpu import get_gpu


# ------------------------------------------------------------------- GPUs
def test_catalog_contains_paper_gpus():
    for name in ["tesla-t4", "rtx2080ti", "rtx3090"]:
        assert name in GPU_CATALOG


def test_paper_quoted_tflops():
    """The paper quotes these exact numbers in §1."""
    assert GPU_CATALOG["rtx2080ti"].tflops == 13.45
    assert GPU_CATALOG["rtx3090"].tflops == 35.58


def test_get_gpu_unknown_raises_with_suggestions():
    with pytest.raises(KeyError, match="tesla-t4"):
        get_gpu("gtx-does-not-exist")


def test_gpuspec_validation():
    with pytest.raises(ValueError):
        GPUSpec("bad", tflops=0)
    with pytest.raises(ValueError):
        GPUSpec("bad", tflops=1, efficiency=0)
    with pytest.raises(ValueError):
        GPUSpec("bad", tflops=1, efficiency=1.5)


def test_achieved_flops():
    g = GPUSpec("x", tflops=10.0, efficiency=0.5)
    assert g.achieved_flops == pytest.approx(5e12)


# ----------------------------------------------------------- ComputeModel
def test_iteration_time_scales_with_batch():
    cm = ComputeModel(get_gpu("tesla-t4"), fixed_overhead=0.0)
    t1 = cm.iteration_time(1e9, batch_size=32)
    t2 = cm.iteration_time(1e9, batch_size=64)
    assert t2 == pytest.approx(2 * t1)


def test_iteration_time_inverse_in_gpu_speed():
    slow = ComputeModel(GPUSpec("s", tflops=10.0), fixed_overhead=0.0)
    fast = ComputeModel(GPUSpec("f", tflops=20.0), fixed_overhead=0.0)
    assert slow.iteration_time(1e9, 8) == pytest.approx(
        2 * fast.iteration_time(1e9, 8)
    )


def test_iteration_time_includes_overhead():
    cm = ComputeModel(get_gpu("tesla-t4"), fixed_overhead=0.01)
    cm0 = ComputeModel(get_gpu("tesla-t4"), fixed_overhead=0.0)
    assert cm.iteration_time(1e9, 8) == pytest.approx(
        cm0.iteration_time(1e9, 8) + 0.01
    )


def test_forward_time_is_third_of_compute():
    cm = ComputeModel(get_gpu("tesla-t4"), fixed_overhead=0.0)
    forward = 1e9 * 8 / cm.gpu.achieved_flops
    assert cm.iteration_time(1e9, 8) == pytest.approx(3 * forward)


def test_compute_model_validation():
    cm = ComputeModel(get_gpu("tesla-t4"))
    with pytest.raises(ValueError):
        cm.iteration_time(0, 8)
    with pytest.raises(ValueError):
        cm.iteration_time(1e9, 0)
    with pytest.raises(ValueError):
        ComputeModel(get_gpu("tesla-t4"), fixed_overhead=-1)


def test_pgp_time_small_vs_training():
    """PGP must be cheap relative to an iteration (paper's §4.4 claim is
    3-8% overhead for param-heavy models)."""
    cm = ComputeModel(get_gpu("tesla-t4"), fixed_overhead=0.0)
    t_iter = cm.iteration_time(4e9, 64)  # ResNet50-ish
    t_pgp = cm.pgp_time(n_params=25_000_000, n_layers=161)
    assert t_pgp < 0.25 * t_iter


def test_pgp_time_scales_with_params():
    cm = ComputeModel(get_gpu("tesla-t4"))
    assert cm.pgp_time(2_000_000, 100) > cm.pgp_time(1_000_000, 100)
    with pytest.raises(ValueError):
        cm.pgp_time(-1, 10)


# ----------------------------------------------------------------- Jitter
def test_no_jitter_identity():
    assert NoJitter().sample(1.5, worker=3, iteration=7) == 1.5


def test_lognormal_jitter_deterministic_per_seed():
    j1 = LognormalJitter(sigma=0.3, seed=42)
    j2 = LognormalJitter(sigma=0.3, seed=42)
    for w in range(4):
        for i in range(10):
            assert j1.sample(1.0, w, i) == j2.sample(1.0, w, i)


def test_lognormal_jitter_reask_consistent():
    j = LognormalJitter(sigma=0.3, seed=1)
    a = j.sample(1.0, 0, 0)
    b = j.sample(1.0, 0, 0)
    assert a == b


def test_lognormal_jitter_different_seeds_differ():
    a = LognormalJitter(sigma=0.3, seed=1).sample(1.0, 0, 0)
    b = LognormalJitter(sigma=0.3, seed=2).sample(1.0, 0, 0)
    assert a != b


def test_lognormal_jitter_sigma_zero_is_identity():
    j = LognormalJitter(sigma=0.0, seed=0)
    assert j.sample(2.0, 1, 1) == pytest.approx(2.0)


def test_lognormal_jitter_median_near_base():
    j = LognormalJitter(sigma=0.4, seed=0)
    samples = [j.sample(1.0, 0, i) for i in range(2000)]
    assert np.median(samples) == pytest.approx(1.0, rel=0.1)


def test_lognormal_jitter_positive():
    j = LognormalJitter(sigma=1.0, seed=3)
    assert all(j.sample(1.0, 0, i) > 0 for i in range(100))


def test_lognormal_jitter_validation():
    with pytest.raises(ValueError):
        LognormalJitter(sigma=-0.1)


@pytest.mark.parametrize("sigma", [float("nan"), float("inf"), float("-inf")])
def test_lognormal_jitter_refuses_non_finite_sigma(sigma):
    """NaN used to pass ``sigma < 0`` and surface mid-run as a NaN timeout;
    inf made every compute time inf or 0."""
    with pytest.raises(ValueError, match=re.escape(f"sigma must be a real in [0, inf), got {sigma}")):
        LognormalJitter(sigma=sigma)


def test_lognormal_jitter_out_of_range_worker_names_the_limit():
    j = LognormalJitter(sigma=0.1, seed=0, n_workers=4)
    with pytest.raises(ValueError, match="worker 4 out of range.*n_workers=4"):
        j.sample(1.0, 4, 0)


def test_lognormal_jitter_samples_independent_of_stream_count():
    small = LognormalJitter(sigma=0.3, seed=5, n_workers=8)
    large = LognormalJitter(sigma=0.3, seed=5, n_workers=128)
    for w in range(8):
        assert small.sample(1.0, w, 0) == large.sample(1.0, w, 0)


def test_persistent_straggler_slows_selected_workers():
    m = PersistentStraggler(slow_workers=[2], slow_factor=3.0)
    assert m.sample(1.0, 2, 0) == pytest.approx(3.0)
    assert m.sample(1.0, 0, 0) == pytest.approx(1.0)


def test_persistent_straggler_composes_with_inner():
    inner = LognormalJitter(sigma=0.2, seed=0)
    m = PersistentStraggler(slow_workers=[1], slow_factor=2.0, inner=inner)
    assert m.sample(1.0, 1, 5) == pytest.approx(2.0 * inner.sample(1.0, 1, 5))


def test_persistent_straggler_validation():
    with pytest.raises(ValueError):
        PersistentStraggler(slow_workers=[0], slow_factor=0.5)


def test_barrier_penalty_grows_with_sigma():
    """Mean-of-max over workers (BSP cost) grows with jitter; mean
    per-worker (ASP cost) stays ~constant — the Fig. 1 vs Fig. 2 mechanism."""
    def mean_max(sigma):
        j = LognormalJitter(sigma=sigma, seed=7)
        maxima = []
        for it in range(300):
            maxima.append(max(j.sample(1.0, w, it) for w in range(8)))
        return float(np.mean(maxima))

    assert mean_max(0.5) > mean_max(0.1) > 1.0
