"""Engines: what happens at a worker's compute event.

:class:`Engine` is the interface every sync model calls; ``TimingEngine``
(here) substitutes calibrated synthetic losses and uses only the
paper-scale byte/FLOP bookkeeping (timing fidelity at full model size), and
:class:`~repro.cluster.numeric.NumericEngine` runs real forward/backward
passes on per-worker mini-model replicas (accuracy fidelity). Both expose
identical interfaces so every sync model runs unchanged in either mode.
The numeric engine has its own module so that a timing run never imports
the autograd/nn/optim/data stack.

Wire sizes: in numeric mode each mini-layer's byte count is scaled so the
whole model weighs exactly the paper-scale ``card.model_bytes``; in timing
mode layers follow :func:`repro.nn.models.registry.synthetic_layer_sizes`.
Either way OSP's GIB splits real per-layer byte distributions.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from repro.cluster.ps import ParameterServer
from repro.cluster.spec import GPU, ClusterSpec, TrainingPlan
from repro.core.splitter import GradientSplitter
from repro.hardware.compute import ComputeModel
from repro.nn.models.registry import BYTES_PER_PARAM, ModelCard, synthetic_layer_sizes

#: The timing engine's synthetic learning curves: the loss falls from
#: ``INITIAL_LOSS`` toward ``LOSS_FLOOR`` and the metric rises toward
#: ``MAX_METRIC``.
INITIAL_LOSS = 2.3
LOSS_FLOOR = 0.05
MAX_METRIC = 0.93


class Engine:
    """Common interface (see module docstring). Subclasses implement the
    numeric or timing behaviour."""

    card: ModelCard
    splitter: GradientSplitter
    layer_bytes: dict[str, int]
    #: Optional :class:`repro.obs.Tracer` (set by the trainer when tracing
    #: is enabled); evaluations become PS-track instants.
    tracer = None
    #: ``(fixed_overhead, T_c)`` of the last :meth:`base_compute_time` call.
    _t_c: Optional[tuple[float, float]] = None

    def _trace_eval(self, metric: float, iterations_done: int) -> None:
        if self.tracer:
            self.tracer.instant(
                "eval", actor="ps", track="ps",
                metric=metric, iterations_done=iterations_done,
            )

    # -- sizes -------------------------------------------------------------
    @property
    def model_bytes(self) -> float:
        """Total gradient/parameter wire size."""
        return float(sum(self.layer_bytes.values()))

    def bytes_of_layers(self, layers: Sequence[str]) -> float:
        """Wire bytes of a set of layers."""
        return float(sum(self.layer_bytes[l] for l in layers))

    # -- abstract ------------------------------------------------------------
    def base_compute_time(self, spec: ClusterSpec) -> float:
        """Nominal per-iteration T_c on this cluster's GPU (the card's
        kernel-efficiency factor applied). Only ``spec.fixed_overhead``
        enters, so the value is computed once per engine and overhead."""
        if self._t_c is None or self._t_c[0] != spec.fixed_overhead:
            cm = ComputeModel(GPU, fixed_overhead=spec.fixed_overhead)
            t_c = (
                cm.iteration_time(self.card.paper_flops_per_sample, self.card.batch_size)
                / self.card.efficiency_factor
            )
            self._t_c = (spec.fixed_overhead, t_c)
        return self._t_c[1]

    def pgp_compute_time(self, spec: ClusterSpec) -> float:
        """PS-side PGP + sort cost (charged to a co-located worker, §4.4)."""
        cm = ComputeModel(GPU, fixed_overhead=0.0)
        return cm.pgp_time(self.card.paper_params, self.card.paper_layers)

    def make_ps(self, plan: TrainingPlan) -> ParameterServer:
        raise NotImplementedError

    def compute(self, worker: int, epoch: int, batch: int):
        """Run one iteration's math. Returns (grads|None, loss, samples)."""
        raise NotImplementedError

    def worker_params(self, worker: int) -> dict[str, np.ndarray]:
        """Live views of the worker replica's parameter arrays ({} in
        timing mode)."""
        raise NotImplementedError

    def sync_replica(
        self, worker: int, ps: ParameterServer, names: Optional[Sequence[str]] = None
    ) -> None:
        """Overwrite a replica's parameters (all or subset) from the PS."""
        raise NotImplementedError

    def evaluate(self, ps: ParameterServer, iterations_done: int) -> float:
        """Global model quality (top-1 or F1-style, in [0,1])."""
        raise NotImplementedError

    def ps_layer_importance(self, ps: ParameterServer) -> dict[str, float]:
        """PGP layer importance from the PS's state (Eq. 4)."""
        raise NotImplementedError

    # -- checkpointing -------------------------------------------------------
    def checkpoint_state(self) -> dict:
        """JSON-able engine state beyond the parameter planes (default none)."""
        return {}

    def restore_checkpoint_state(self, state: dict) -> None:
        """Restore state captured by :meth:`checkpoint_state`."""


class TimingEngine(Engine):
    """Paper-scale byte/FLOP bookkeeping with synthetic learning curves.

    The loss curve is ``LOSS_FLOOR + (INITIAL_LOSS − LOSS_FLOOR)·exp(−step/tau)``
    — the standard empirical shape — feeding Algorithm 1; the metric curve
    rises toward ``MAX_METRIC`` correspondingly.

    ``tau`` is the curves' time constant, in per-worker iterations; it
    defaults to ``total_iterations / 3``.
    """

    def __init__(
        self,
        card: ModelCard,
        spec: ClusterSpec,
        total_iterations: int,
        seed: int = 0,
        tau: Optional[float] = None,
    ) -> None:
        if total_iterations < 1:
            raise ValueError(f"total_iterations must be >= 1, got {total_iterations}")
        if tau is not None and tau <= 0:
            raise ValueError(f"tau must be positive, got {tau}")
        self.card = card
        self.spec = spec
        self.total_iterations = total_iterations
        self.tau = float(tau) if tau is not None else max(1.0, total_iterations / 3.0)
        sizes = synthetic_layer_sizes(card)
        width = len(str(len(sizes)))
        layer_params = {
            f"layer{str(i).zfill(width)}": (f"layer{str(i).zfill(width)}.w",)
            for i in range(len(sizes))
        }
        self.splitter = GradientSplitter(layer_params)
        self.layer_bytes = {
            layer: int(sizes[i]) * BYTES_PER_PARAM
            for i, layer in enumerate(layer_params)
        }
        rng = np.random.default_rng(seed)
        # Static pseudo-importance: heavy-tailed noise on a depth-decaying
        # prior. Taylor/PGP importance is empirically concentrated in early
        # conv layers and low in late/classifier layers (Molchanov et al.,
        # the paper's ref [31]) — without this prior a giant low-importance
        # layer (VGG's fc6) could be randomly ranked important and never
        # deferred, which no real importance profile exhibits.
        n_layers = len(sizes)
        prior = np.geomspace(4.0, 0.25, n_layers)
        noise = np.exp(rng.normal(0.0, 0.5, size=n_layers))
        self._importance = {
            layer: float(p * v)
            for layer, p, v in zip(layer_params, prior, noise)
        }
        self._steps_done = np.zeros(spec.n_workers, dtype=np.int64)

    def synthetic_loss(self, step: int) -> float:
        """Loss after ``step`` per-worker iterations."""
        return LOSS_FLOOR + (INITIAL_LOSS - LOSS_FLOOR) * math.exp(-step / self.tau)

    def make_ps(self, plan: TrainingPlan) -> ParameterServer:
        return ParameterServer(None, None, self.spec.n_workers)

    def compute(self, worker: int, epoch: int, batch: int):
        step = int(self._steps_done[worker])
        self._steps_done[worker] += 1
        return None, self.synthetic_loss(step), self.card.batch_size

    def worker_params(self, worker: int) -> dict[str, np.ndarray]:
        return {}

    def sync_replica(
        self, worker: int, ps: ParameterServer, names: Optional[Sequence[str]] = None
    ) -> None:
        pass

    def evaluate(self, ps: ParameterServer, iterations_done: int) -> float:
        per_worker = iterations_done / max(1, self.spec.n_workers)
        metric = MAX_METRIC * (1.0 - math.exp(-per_worker / self.tau))
        self._trace_eval(metric, iterations_done)
        return metric

    def ps_layer_importance(self, ps: ParameterServer) -> dict[str, float]:
        return dict(self._importance)

    def checkpoint_state(self) -> dict:
        # The synthetic loss curve is a function of per-worker step counts;
        # they are the engine's only mutable state.
        return {"steps_done": [int(s) for s in self._steps_done]}

    def restore_checkpoint_state(self, state: dict) -> None:
        steps = state.get("steps_done")
        if steps is None:
            return
        if len(steps) != self.spec.n_workers:
            raise ValueError(
                f"checkpoint has {len(steps)} worker step counts; spec has "
                f"{self.spec.n_workers} workers"
            )
        self._steps_done = np.asarray(steps, dtype=np.int64)


__all__ = ["Engine", "TimingEngine"]
