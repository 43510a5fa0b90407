"""Parameter-server state: the canonical model, its optimizer, and the
gradient aggregation buffers every sync model shares.

In numeric mode the PS owns the single source-of-truth parameter arrays
and an SGD optimizer (standard PS design: optimizer state lives server-
side). In timing mode (no arrays) the same bookkeeping runs on byte counts
so sync-model control flow is identical. Gradients, parameters and the
last aggregate are all plain name→array dicts.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Optional, Sequence

import numpy as np

if TYPE_CHECKING:
    from repro.nn.module import Module
    from repro.optim.sgd import SGD


class ParameterServer:
    """Aggregation buffers + global model update logic; ``deposit_hooks`` /
    ``apply_hooks`` let a checker see each deposit and apply before it lands.

    Parameters
    ----------
    model:
        The canonical global model (numeric mode) or None (timing mode).
    optimizer:
        Server-side SGD over ``model`` (numeric mode) or None.
    n_workers:
        Cluster size; used for full-quorum detection and default weights.
    worker_weights:
        Aggregation weight per worker, defaulting to uniform 1/N. The paper
        (§2.1.1) weights by each worker's data-shard fraction.
    """

    def __init__(
        self,
        model: Optional[Module],
        optimizer: Optional[SGD],
        n_workers: int,
        worker_weights: Optional[Sequence[float]] = None,
    ) -> None:
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        if (model is None) != (optimizer is None):
            raise ValueError("model and optimizer must both be set or both None")
        self.model = model
        self.optimizer = optimizer
        self.n_workers = n_workers
        if worker_weights is None:
            self.worker_weights = np.full(n_workers, 1.0 / n_workers)
        else:
            w = np.asarray(worker_weights, dtype=float)
            if w.shape != (n_workers,) or (w < 0).any() or w.sum() <= 0:
                raise ValueError(f"bad worker_weights {worker_weights}")
            self.worker_weights = w / w.sum()
        self._params = dict(model.named_parameters()) if model is not None else {}
        self._buffers: dict[str, dict[int, Mapping[str, np.ndarray]]] = {}
        #: Optional :class:`repro.obs.Tracer` (set by the trainer when
        #: tracing is enabled); apply events become PS-track spans.
        self.tracer = None
        #: Subscribers (``repro.obs.registry.HOOKS``), called *before* the PS
        #: acts: ``deposit_hooks`` with ``(bucket, worker)``, ``apply_hooks``
        #: with the bucket (``None`` from :meth:`apply_immediate`).
        self.deposit_hooks: list = []
        self.apply_hooks: list = []
        #: bumps on every applied update; workers compare versions to detect
        #: staleness (diagnostics).
        self.version = 0
        #: the gradient most recently applied to each parameter (numeric;
        #: feeds PGP importance). A never-synchronized parameter is absent.
        self.last_aggregated: dict[str, np.ndarray] = {}

    @property
    def numeric(self) -> bool:
        return self.model is not None

    # -- aggregation buffers ---------------------------------------------------
    def accumulate(
        self, bucket: str, worker: int, grads: Optional[Mapping[str, np.ndarray]]
    ) -> int:
        """Deposit a worker's gradients in a named bucket; returns how many
        workers have deposited. ``grads`` may be None in timing mode."""
        for hook in self.deposit_hooks:
            hook(bucket, worker)
        buf = self._buffers.setdefault(bucket, {})
        if worker in buf:
            raise RuntimeError(
                f"worker {worker} deposited twice in bucket {bucket!r}"
            )
        buf[worker] = grads if grads is not None else {}
        return len(buf)

    def pending(self, bucket: str) -> int:
        """Number of deposits waiting in a bucket."""
        return len(self._buffers.get(bucket, {}))

    def pending_total(self) -> int:
        """Total deposits buffered across every open bucket (sampler probe)."""
        return sum(len(buf) for buf in self._buffers.values())

    def open_buckets(self) -> int:
        """Buckets currently holding at least one deposit (sampler probe)."""
        return sum(1 for buf in self._buffers.values() if buf)

    def apply_average(self, bucket: str) -> None:
        """Weighted-average the bucket's gradients, apply via the optimizer,
        clear the bucket, bump the version. No-op arrays in timing mode."""
        self._before_apply(bucket)
        buf = self._buffers.pop(bucket, None)
        if not buf:
            raise RuntimeError(f"apply_average on empty bucket {bucket!r}")
        if self.numeric:
            avg: dict[str, np.ndarray] = {}
            total_w = sum(self.worker_weights[w] for w in buf)
            for worker, grads in buf.items():
                weight = self.worker_weights[worker] / total_w
                for name, g in grads.items():
                    if name in avg:
                        avg[name] += weight * g
                    else:
                        avg[name] = weight * g
            if avg:
                self.optimizer.step_with_grads(avg)
                self.last_aggregated.update(avg)
        self.version += 1
        self._trace_apply(bucket, len(buf))

    def apply_immediate(
        self, worker: int, grads: Optional[Mapping[str, np.ndarray]]
    ) -> None:
        """ASP-style: apply one worker's gradients now, scaled by its
        aggregation weight (so a full round of N pushes moves the model as
        far as one BSP step)."""
        self._before_apply(None)
        if self.numeric and grads:
            scale = float(self.worker_weights[worker])
            scaled = {n: scale * g for n, g in grads.items()}
            self.optimizer.step_with_grads(scaled)
            # Keep what was actually applied: apply_average records the
            # weighted average, so PGP importance sees consistently
            # scaled gradients whichever path produced them.
            self.last_aggregated.update(scaled)
        self.version += 1
        self._trace_apply(f"immediate:{worker}", 1)

    def _before_apply(self, bucket: Optional[str]) -> None:
        for hook in self.apply_hooks:
            hook(bucket)

    def _trace_apply(self, bucket: str, deposits: int) -> None:
        """Emit a zero-duration ``ps_apply`` span + version gauge when
        tracing is enabled (virtual time does not pass inside an apply)."""
        tr = self.tracer
        if tr:
            span = tr.begin(
                "ps_apply", "ps", track="ps", cat="ps",
                bucket=bucket, deposits=deposits,
            )
            tr.end(span)
            tr.gauge("obs.ps.version", self.version)

    # -- parameter access --------------------------------------------------------
    def snapshot(
        self, names: Optional[Sequence[str]] = None, copy: bool = True
    ) -> dict[str, np.ndarray]:
        """Global parameters (all, or the named subset).

        ``copy=True`` (default) returns arrays decoupled from the live
        model.

        ``copy=False`` returns the *read-only-by-contract* live arrays: zero
        copies, but the values change under the caller's feet on the next
        apply. Use it only for same-instant consumption (the PGP importance
        read, LGP's Eq. 6 adoption, evaluation) — never hold it across a
        simulation yield.
        """
        if not self.numeric:
            return {}
        if names is None:
            if not copy:
                return {n: p.data for n, p in self._params.items()}
            return {n: p.data.copy() for n, p in self._params.items()}
        out = {}
        for n in names:
            if n not in self._params:
                raise KeyError(f"unknown parameter {n!r}")
            out[n] = self._params[n].data.copy() if copy else self._params[n].data
        return out


__all__ = ["ParameterServer"]
