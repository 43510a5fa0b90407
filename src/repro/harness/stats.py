"""Multi-seed statistics: run an experiment across seeds and aggregate.

Single-seed comparisons can flatter whichever method got a lucky draw;
`run_seeds` repeats a trainer-factory across seeds and reports mean ± std
for the headline metrics, so benchmark claims can be checked for
seed-robustness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.perf.executor import parallel_map


@dataclass(frozen=True)
class SeedStats:
    """Aggregate of one metric across seeds."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError(
                "SeedStats needs at least one value; got an empty tuple"
            )

    @property
    def mean(self) -> float:
        return float(np.mean(self.values))

    @property
    def std(self) -> float:
        return float(np.std(self.values))

    @property
    def min(self) -> float:
        return float(np.min(self.values))

    @property
    def max(self) -> float:
        return float(np.max(self.values))

    def __str__(self) -> str:
        return f"{self.mean:.4g} ± {self.std:.2g}"


@dataclass(frozen=True)
class MultiSeedResult:
    """Per-metric statistics for one (workload, sync) configuration."""

    throughput: SeedStats
    best_metric: SeedStats
    mean_bst: SeedStats


def run_seeds(
    trainer_factory: Callable[[int], "DistributedTrainer"],  # noqa: F821
    seeds: Sequence[int],
    jobs: int = 1,
) -> MultiSeedResult:
    """Run ``trainer_factory(seed)`` for each seed and aggregate.

    The factory must build a *fresh* trainer per call (trainers are
    single-use). ``jobs`` fans seeds across forked processes via
    :func:`repro.perf.parallel_map`; only the aggregated scalar metrics
    cross the process boundary (full ``TrainingResult`` objects hold live
    simulation state and do not pickle), so the statistics are identical
    to a serial run.
    """
    if not seeds:
        raise ValueError("need at least one seed")

    def one(seed: int) -> tuple[float, float, float]:
        res = trainer_factory(int(seed)).run()
        return res.throughput, res.best_metric, res.mean_bst

    metrics = parallel_map(one, [int(s) for s in seeds], jobs=jobs)
    return MultiSeedResult(
        throughput=SeedStats(tuple(m[0] for m in metrics)),
        best_metric=SeedStats(tuple(m[1] for m in metrics)),
        mean_bst=SeedStats(tuple(m[2] for m in metrics)),
    )


__all__ = ["MultiSeedResult", "SeedStats", "run_seeds"]
