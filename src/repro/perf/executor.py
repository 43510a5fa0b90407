"""Process-parallel task executor for simulation sweeps.

Sweep points (one ``DistributedTrainer`` run each) are CPU-bound, fully
independent and deterministic given their config, which makes them ideal
fan-out targets — but the task callables close over sync-model factories
(often lambdas), which do not pickle. The executor therefore uses the
``fork`` start method and ships only ``(registry_key, task_index)`` to the
workers: the function and task list are inherited through the forked
address space via a module-global registry, never pickled. Results (e.g.
``SweepPoint``) must still pickle for the return trip.

Determinism: ``pool.map`` preserves task order, every task carries its own
seeds (the repo's RNG discipline — no global-RNG use in the sim), and each
worker additionally reseeds numpy's *global* RNG from ``seed_base + index``
as a belt-and-braces guard against any legacy global draw, so
``parallel_map(fn, tasks, jobs=N)`` returns exactly the list
``[fn(t) for t in tasks]`` for every ``N``.
"""

from __future__ import annotations

import itertools
import multiprocessing
from typing import Callable, Iterable, Sequence, TypeVar

import numpy as np

T = TypeVar("T")
R = TypeVar("R")

#: key → (fn, tasks, seed_base); populated immediately before the fork so
#: children inherit it, removed when the pool closes.
_REGISTRY: dict[int, tuple[Callable, Sequence, int]] = {}
_KEYS = itertools.count()


def _fork_available() -> bool:
    try:
        return "fork" in multiprocessing.get_all_start_methods()
    except Exception:  # pragma: no cover - exotic platforms
        return False


def _run_task(arg: tuple[int, int]):
    key, index = arg
    fn, tasks, seed_base = _REGISTRY[key]
    np.random.seed((seed_base + index) % (2**32))
    return fn(tasks[index])


def parallel_map(
    fn: Callable[[T], R],
    tasks: Iterable[T],
    jobs: int = 1,
    seed_base: int = 0,
) -> list[R]:
    """``[fn(t) for t in tasks]``, fanned across ``jobs`` forked workers.

    ``jobs=1`` (the default) runs serially in-process — identical to the
    plain list comprehension, no processes involved. Platforms without
    ``fork`` (or single-task inputs) silently fall back to serial; results
    are the same either way.
    """
    tasks = list(tasks)
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if jobs == 1 or len(tasks) <= 1 or not _fork_available():
        return [fn(t) for t in tasks]
    key = next(_KEYS)
    _REGISTRY[key] = (fn, tasks, seed_base)
    try:
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(processes=min(jobs, len(tasks))) as pool:
            return pool.map(_run_task, [(key, i) for i in range(len(tasks))])
    finally:
        del _REGISTRY[key]


__all__ = ["parallel_map"]
