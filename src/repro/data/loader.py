"""Per-worker batch loading with per-epoch reshuffling."""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.bounds import COUNT, INDEX, check_bounds
from repro.data.dataset import Dataset


class BatchLoader:
    """Deterministic epoch-shuffled batch iterator over one worker's shard.

    The permutation for epoch ``e`` depends only on (seed, e), implementing
    the paper's §4.2 requirement that local data is reshuffled every epoch
    so no fixed subset always trains on post-LGP stale parameters.
    """

    BOUNDS = {"batch_size": COUNT, "seed": INDEX}

    def __init__(
        self,
        dataset: Dataset,
        batch_size: int,
        seed: int = 0,
        drop_last: bool = True,
    ) -> None:
        self.batch_size = batch_size
        self.seed = seed
        check_bounds(self)
        if len(dataset) == 0:
            raise ValueError("empty dataset")
        if drop_last and len(dataset) < batch_size:
            raise ValueError(
                f"shard of {len(dataset)} samples smaller than batch {batch_size} "
                "with drop_last=True"
            )
        self.dataset = dataset
        self.drop_last = drop_last
        self._perm_cache: tuple[int, np.ndarray] | None = None

    @property
    def batches_per_epoch(self) -> int:
        n = len(self.dataset)
        if self.drop_last:
            return n // self.batch_size
        return (n + self.batch_size - 1) // self.batch_size

    def epoch(self, epoch_index: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Yield (inputs, targets) batches for the given epoch."""
        rng = np.random.default_rng(
            np.random.SeedSequence([self.seed, epoch_index])
        )
        perm = rng.permutation(len(self.dataset))
        n_batches = self.batches_per_epoch
        for b in range(n_batches):
            idx = perm[b * self.batch_size : (b + 1) * self.batch_size]
            yield self.dataset.inputs[idx], self.dataset.targets[idx]

    def batch(self, epoch_index: int, batch_index: int) -> tuple[np.ndarray, np.ndarray]:
        """Random access to one batch (used by event-driven workers that
        interleave iterations rather than looping an iterator)."""
        if not (0 <= batch_index < self.batches_per_epoch):
            raise IndexError(
                f"batch {batch_index} out of range [0,{self.batches_per_epoch})"
            )
        if self._perm_cache is not None and self._perm_cache[0] == epoch_index:
            perm = self._perm_cache[1]
        else:
            rng = np.random.default_rng(
                np.random.SeedSequence([self.seed, epoch_index])
            )
            perm = rng.permutation(len(self.dataset))
            self._perm_cache = (epoch_index, perm)
        idx = perm[batch_index * self.batch_size : (batch_index + 1) * self.batch_size]
        return self.dataset.inputs[idx], self.dataset.targets[idx]


__all__ = ["BatchLoader"]
