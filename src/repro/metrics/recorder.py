"""In-memory metric recorder shared by all experiments."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class IterationRecord:
    """One worker-iteration's bookkeeping."""

    worker: int
    iteration: int
    start_time: float
    compute_time: float  # BCT: batch computation time (§5.4)
    sync_time: float  # BST: batch synchronization time (§5.1.4)
    loss: float
    samples: int


@dataclass(frozen=True)
class EpochRecord:
    """End-of-epoch evaluation snapshot."""

    epoch: int
    time: float  # virtual time at evaluation
    train_loss: float
    metric: float  # top-1 accuracy or F1
    iterations_done: int  # global iteration count at evaluation


@dataclass
class Recorder:
    """Accumulates iteration and epoch records; computes summaries."""

    iterations: list[IterationRecord] = field(default_factory=list, init=False)
    epochs: list[EpochRecord] = field(default_factory=list, init=False)
    #: Named counters, absent until first incremented: ints for event counts
    #: (``faults.*`` fault injections, ``osp.*`` degradation events), floats
    #: for byte totals (``netsim.prio_bytes.*``, ``multijob.*_bytes``).
    counters: dict[str, int | float] = field(default_factory=dict)

    # -- recording ---------------------------------------------------------
    def record_iteration(self, rec: IterationRecord) -> None:
        self.iterations.append(rec)

    def record_epoch(self, rec: EpochRecord) -> None:
        self.epochs.append(rec)

    def incr(self, name: str, n: int | float = 1) -> None:
        """Bump a named event counter."""
        self.counters[name] = self.counters.get(name, 0) + n

    def counter(self, name: str) -> int:
        """Current value of a named counter (0 if never incremented)."""
        return self.counters.get(name, 0)

    def restore_from(self, other: "Recorder") -> None:
        """Prepend ``other``'s history to this recorder (checkpoint resume).

        The restored records come *before* anything already recorded, and
        counters merge additively, so after a resume the recorder reads as
        one continuous run.
        """
        self.iterations[:0] = other.iterations
        self.epochs[:0] = other.epochs
        for name, n in other.counters.items():
            self.counters[name] = self.counters.get(name, 0) + n

    # -- summaries ----------------------------------------------------------
    @property
    def total_samples(self) -> int:
        return sum(r.samples for r in self.iterations)

    @property
    def total_iterations(self) -> int:
        return len(self.iterations)

    def end_time(self) -> float:
        """Virtual time when the last iteration finished."""
        if not self.iterations:
            return 0.0
        return max(r.start_time + r.compute_time + r.sync_time for r in self.iterations)

    def throughput(self) -> float:
        """Samples processed per second of virtual time (§5.1.4 metric 1)."""
        t = self.end_time()
        return self.total_samples / t if t > 0 else 0.0

    def mean_bst(self) -> float:
        """Mean batch synchronization time (§5.1.4 metric 4)."""
        if not self.iterations:
            return 0.0
        return float(np.mean([r.sync_time for r in self.iterations]))

    def mean_bct(self) -> float:
        """Mean batch computation time (§5.4)."""
        if not self.iterations:
            return 0.0
        return float(np.mean([r.compute_time for r in self.iterations]))

    def bst_percentile(self, q: float) -> float:
        """Percentile of per-iteration sync time (``q`` in [0, 100]).

        The long-tail behaviour the incast literature targets (paper refs
        [18, 19]): p99/p50 spread quantifies how unevenly a sync model's
        rounds behave.
        """
        if not (0.0 <= q <= 100.0):
            raise ValueError(f"q must be in [0,100], got {q}")
        if not self.iterations:
            return 0.0
        return float(np.percentile([r.sync_time for r in self.iterations], q))

    def best_metric(self) -> float:
        """Best (max) evaluation metric seen (§5.1.4 metric 2)."""
        if not self.epochs:
            return 0.0
        return max(e.metric for e in self.epochs)

    def iterations_to_best(self) -> int:
        """Global iterations needed to first reach the best metric
        (§5.1.4 metric 3)."""
        best = self.best_metric()
        for e in self.epochs:
            if e.metric >= best:
                return e.iterations_done
        return self.total_iterations

    def time_to_accuracy(self) -> list[tuple[float, float]]:
        """(virtual time, metric) curve (§5.1.4 metric 5; Figs. 7–8)."""
        return [(e.time, e.metric) for e in self.epochs]

    def mean_iteration_time(self) -> float:
        """Mean wall time of one iteration (compute + sync)."""
        if not self.iterations:
            return 0.0
        return float(
            np.mean([r.compute_time + r.sync_time for r in self.iterations])
        )

    def communication_share(self) -> float:
        """Fraction of per-iteration time spent synchronizing (Fig. 3)."""
        denom = self.mean_bct() + self.mean_bst()
        return self.mean_bst() / denom if denom > 0 else 0.0


__all__ = ["EpochRecord", "IterationRecord", "Recorder"]
