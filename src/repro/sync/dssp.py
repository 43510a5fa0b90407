"""DSSP — Dynamic Stale Synchronous Parallel (Zhao et al., ICDCS'19; the
paper's related work §7).

SSP with an adaptive threshold: instead of a fixed staleness bound ``s``,
DSSP keeps the bound inside a range ``[s_min, s_max]`` and moves it with
the observed processing-speed spread — when workers run at similar speeds
the bound tightens toward ``s_min`` (fresher updates), and when the spread
grows it relaxes toward ``s_max`` (fewer blocking waits).

Our adaptation signal is the ratio of the slowest to fastest worker's
recent mean iteration time, mapped linearly onto the range — a faithful
rendering of DSSP's "determine the best s from the current range based on
real-time processing speeds".
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.cluster.context import TrainerContext

import numpy as np

from repro.bounds import COUNT, INDEX
from repro.sync.ssp import SSP


class DSSP(SSP):
    """Dynamically-bounded stale synchronous parallel."""

    name = "dssp"

    BOUNDS = {"s_min": INDEX, "s_max": INDEX, "window": COUNT}

    def __init__(self, s_min: int = 1, s_max: int = 6, window: int = 8) -> None:
        self.s_min = s_min
        self.s_max = s_max
        self.window = window
        super().__init__(staleness=s_min)
        if s_min > s_max:
            raise ValueError(f"need s_min <= s_max, got [{s_min},{s_max}]")
        self._durations: dict[int, list[float]] = {}

    def setup(self, ctx: TrainerContext) -> None:
        super().setup(ctx)
        self._durations = {w: [] for w in range(ctx.spec.n_workers)}
        self._last_start: dict[int, float] = {}

    def _observe(self, ctx, worker: int, duration: float) -> None:
        window = self._durations[worker]
        window.append(duration)
        if len(window) > self.window:
            window.pop(0)
        # The spread is a *current* processing-speed signal, so only workers
        # that are actually running count: a crashed worker's frozen window
        # must not pin the bound forever, and a not-yet-joined worker's
        # empty window must not hold adaptation at s_min indefinitely.
        alive = ctx.alive_workers
        windows = [w for wid, w in self._durations.items() if wid in alive]
        means = [float(np.mean(w)) for w in windows if w]
        if not means or len(means) < len(windows):
            return  # some live worker not measured yet
        spread = max(means) / max(min(means), 1e-12)
        # spread 1.0 -> s_min; spread >= 2.0 -> s_max; linear in between.
        frac = min(1.0, max(0.0, spread - 1.0))
        self.staleness = round(self.s_min + frac * (self.s_max - self.s_min))

    def before_compute(self, ctx, worker, iteration):
        # Full iteration time = gap between consecutive compute starts;
        # that is the "processing speed" DSSP adapts to.
        now = ctx.env.now
        last = self._last_start.get(worker)
        if last is not None and now > last:
            self._observe(ctx, worker, now - last)
        self._last_start[worker] = now
        yield from super().before_compute(ctx, worker, iteration)

    # -- checkpointing: the speed windows and the bound they adapted ----------
    def checkpoint_state(self, ctx) -> dict:
        return {
            **super().checkpoint_state(ctx),
            "staleness": self.staleness,
            "durations": {str(w): d for w, d in self._durations.items()},
            "last_start": {str(w): t for w, t in self._last_start.items()},
        }

    def restore_state(self, ctx, state, arrays) -> None:
        super().restore_state(ctx, state, arrays)
        self.staleness = int(state["staleness"])
        self._durations = {int(w): list(d) for w, d in state["durations"].items()}
        self._last_start = {int(w): float(t) for w, t in state["last_start"].items()}


__all__ = ["DSSP"]
