"""Compute-time jitter and straggler models.

Real clusters never execute identical iterations in identical time:
OS noise, thermal throttling, interfering jobs and data-loading hiccups
spread iteration times. This spread is what makes BSP's global barrier
expensive — each iteration costs the *max* over workers — and is the
mechanism behind the paper's Fig. 1/Fig. 2 contrast and the ``T_ASP`` up to
6× smaller than ``T_BSP`` observation (§2.1.2, citing Sync-Switch).

All models are deterministic given their seed.
"""

from __future__ import annotations

from typing import Protocol, Sequence

import numpy as np

from repro.bounds import COUNT, INDEX, NON_NEGATIVE, Bound, check_bounds


class JitterModel(Protocol):
    """Maps a nominal iteration time to a realised one, per worker/iter."""

    def sample(self, base_time: float, worker: int, iteration: int) -> float:
        """Realised compute time for this worker at this iteration."""
        ...


class NoJitter:
    """Idealised homogeneous cluster: realised time == nominal time."""

    def sample(self, base_time: float, worker: int, iteration: int) -> float:
        return base_time


#: Per-worker streams a :class:`LognormalJitter` builds by default. Spec
#: builders pass ``max(DEFAULT_STREAMS, n_workers)``: streams are seeded per
#: ``(seed, worker)``, so a larger count changes no smaller run's samples,
#: and the floor keeps every checkpoint's stream count as it was.
DEFAULT_STREAMS = 64


class LognormalJitter:
    """Multiplicative lognormal noise, the standard straggler model.

    ``realised = base × exp(N(0, sigma))``, normalised so the *median*
    equals the nominal time. ``sigma≈0.2`` gives mild OS noise; ``0.5``
    gives the heavy-tailed stragglers that make barriers hurt.

    Samples are indexed by (worker, iteration) through a counter-based
    construction (one child generator per worker) so results do not depend
    on the order in which workers ask. Worker ``w``'s generator is seeded
    from ``(seed, w)`` alone and built on its first draw, so a run pays only
    for the streams its workers use.
    """

    BOUNDS = {"sigma": NON_NEGATIVE, "seed": INDEX, "n_workers": COUNT}

    def __init__(
        self, sigma: float = 0.2, seed: int = 0, n_workers: int = DEFAULT_STREAMS
    ) -> None:
        self.sigma = sigma
        self.seed = seed
        self.n_workers = n_workers
        check_bounds(self)
        #: Worker ``w``'s generator, or None until :meth:`_stream` builds it.
        self._streams: list[np.random.Generator | None] = [None] * n_workers
        self._cache: dict[tuple[int, int], float] = {}

    def _stream(self, worker: int) -> np.random.Generator:
        """Worker ``worker``'s generator, built from ``(seed, worker)`` when
        first asked for."""
        stream = self._streams[worker]
        if stream is None:
            seq = np.random.SeedSequence([self.seed, worker])
            stream = self._streams[worker] = np.random.Generator(np.random.PCG64(seq))
        return stream

    def sample(self, base_time: float, worker: int, iteration: int) -> float:
        key = (worker, iteration)
        factor = self._cache.get(key)
        if factor is None:
            # Draw sequentially per worker; iterations are asked in order by
            # the trainer, and the cache makes re-asks consistent.
            if not 0 <= worker < len(self._streams):
                raise ValueError(
                    f"worker {worker} out of range: this LognormalJitter was "
                    f"built with n_workers={len(self._streams)} streams"
                )
            factor = float(np.exp(self._stream(worker).normal(0.0, self.sigma)))
            self._cache[key] = factor
        return base_time * factor

    def state_dict(self) -> dict:
        """Serialisable per-worker RNG stream state (for checkpointing):
        every one of the ``n_workers`` streams, a stream not drawn from yet
        in its freshly seeded state."""
        return {
            "kind": "lognormal",
            "streams": [self._stream(w).bit_generator.state for w in range(self.n_workers)],
        }

    def load_state(self, state: dict) -> None:
        """Restore stream state captured by :meth:`state_dict`."""
        streams = state.get("streams", [])
        if len(streams) != len(self._streams):
            raise ValueError(
                f"jitter state has {len(streams)} streams; model has {len(self._streams)}"
            )
        for w, saved in enumerate(streams):
            self._stream(w).bit_generator.state = saved
        self._cache.clear()


class PersistentStraggler:
    """Some workers are permanently slow (e.g. a thermally-throttled node).

    Wraps an inner model; workers in ``slow_workers`` get their realised
    times multiplied by ``slow_factor``.
    """

    BOUNDS = {"slow_workers": Bound(0, integer=True, each=True), "slow_factor": Bound(1)}

    def __init__(
        self,
        slow_workers: Sequence[int],
        slow_factor: float = 2.0,
        inner: JitterModel | None = None,
    ) -> None:
        self.slow_workers = slow_workers
        self.slow_factor = slow_factor
        check_bounds(self)
        self.slow_workers = frozenset(slow_workers)
        self.inner = inner or NoJitter()

    def sample(self, base_time: float, worker: int, iteration: int) -> float:
        t = self.inner.sample(base_time, worker, iteration)
        if worker in self.slow_workers:
            t *= self.slow_factor
        return t

    def state_dict(self) -> dict:
        inner = getattr(self.inner, "state_dict", None)
        return {"kind": "straggler-wrap", "inner": inner() if inner is not None else None}

    def load_state(self, state: dict) -> None:
        if state.get("inner") is not None:
            self.inner.load_state(state["inner"])


__all__ = [
    "DEFAULT_STREAMS",
    "JitterModel",
    "LognormalJitter",
    "NoJitter",
    "PersistentStraggler",
]
