"""Parameter sweeps: sensitivity of the sync-model comparison to cluster
knobs (bandwidth, jitter).

The headline use is the **crossover analysis**: OSP's advantage over BSP
and its parity with ASP depend on the compute/communication ratio
``rho = T_c / (2·N·S/b)``. Sweeping bandwidth (or GPU speed) moves rho
through three regimes:

* ``rho >> 1`` (fast network / slow GPU): communication is negligible —
  every sync model converges to the compute-bound throughput.
* ``rho ≈ 1``: OSP's overlap shines — it hides what BSP exposes.
* ``rho << 1`` (slow network): even ICS cannot fit inside T_c (Eq. 5
  binds); OSP degrades gracefully toward the best non-overlapped schedule.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterable, Sequence

from repro.cluster.spec import ClusterSpec, TrainingPlan
from repro.cluster.engines import TimingEngine
from repro.cluster.trainer import DistributedTrainer
from repro.hardware.jitter import DEFAULT_STREAMS, LognormalJitter
from repro.netsim.links import LinkSpec
from repro.nn.models.registry import get_card
from repro.perf.executor import parallel_map


@dataclass(frozen=True)
class SweepPoint:
    """One configuration's outcome in a sweep."""

    knob: str
    value: float
    sync: str
    throughput: float
    mean_bst: float
    comm_compute_ratio: float  # rho = T_c / (2 N S / b)


def _run_one(
    card_name: str,
    sync_factory: Callable,
    bandwidth: float,
    n_workers: int,
    sigma: float,
    epochs: int,
    ipe: int,
    seed: int,
) -> tuple[float, float, float]:
    spec = ClusterSpec(
        n_workers=n_workers,
        link=LinkSpec(bandwidth=bandwidth),
        jitter=LognormalJitter(
            sigma=sigma, seed=seed, n_workers=max(DEFAULT_STREAMS, n_workers)
        ),
    )
    plan = TrainingPlan(n_epochs=epochs, iterations_per_epoch=ipe, seed=seed)
    engine = TimingEngine(
        get_card(card_name),
        spec,
        total_iterations=epochs * ipe,
        seed=seed,
        tau=max(1.0, epochs * ipe / 6.0),
    )
    res = DistributedTrainer(spec, plan, engine, sync_factory()).run()
    t_c = engine.base_compute_time(spec)
    rho = t_c / (2.0 * n_workers * engine.model_bytes / bandwidth)
    return res.throughput, res.mean_bst, rho


def sweep_bandwidth(
    sync_factories: Sequence[Callable],
    bandwidths: Iterable[float],
    card_name: str = "resnet50-cifar10",
    n_workers: int = 8,
    sigma: float = 0.1,
    epochs: int = 16,
    ipe: int = 6,
    seed: int = 0,
    jobs: int = 1,
) -> list[SweepPoint]:
    """Sweep the per-node link bandwidth (bytes/second).

    ``jobs`` fans the (bandwidth, sync) grid across forked worker
    processes (:func:`repro.perf.parallel_map`); the returned points are
    identical to the serial run for any value.
    """

    def one(task: tuple[float, Callable]) -> SweepPoint:
        b, factory = task
        thr, bst, rho = _run_one(
            card_name, factory, b, n_workers, sigma, epochs, ipe, seed
        )
        return SweepPoint("bandwidth", float(b), factory().name, thr, bst, rho)

    tasks = [(b, f) for b in bandwidths for f in sync_factories]
    return parallel_map(one, tasks, jobs=jobs, seed_base=seed)


def sweep_jitter(
    sync_factories: Sequence[Callable],
    sigmas: Iterable[float],
    n_workers: int = 8,
    epochs: int = 16,
    ipe: int = 6,
    jobs: int = 1,
) -> list[SweepPoint]:
    """Sweep straggler severity (lognormal sigma) on ResNet50 at seed 0
    (``jobs``: see :func:`sweep_bandwidth`)."""
    b = LinkSpec().bandwidth

    def one(task: tuple[float, Callable]) -> SweepPoint:
        s, factory = task
        thr, bst, rho = _run_one(
            "resnet50-cifar10", factory, b, n_workers, float(s), epochs, ipe, 0
        )
        return SweepPoint("sigma", float(s), factory().name, thr, bst, rho)

    tasks = [(s, f) for s in sigmas for f in sync_factories]
    return parallel_map(one, tasks, jobs=jobs, seed_base=0)


def speedup_over(points: Sequence[SweepPoint], base_sync: str, sync: str) -> list[tuple[float, float]]:
    """(knob value, throughput ratio sync/base) pairs from a sweep."""
    base = {p.value: p.throughput for p in points if p.sync == base_sync}
    out = []
    for p in points:
        if p.sync == sync and p.value in base and base[p.value] > 0:
            out.append((p.value, p.throughput / base[p.value]))
    return sorted(out)


__all__ = [
    "SweepPoint",
    "speedup_over",
    "sweep_bandwidth",
    "sweep_jitter",
]
