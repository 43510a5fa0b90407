"""Engines: what happens at a worker's compute event.

``NumericEngine`` runs real forward/backward passes on per-worker mini-model
replicas (accuracy fidelity); ``TimingEngine`` substitutes calibrated
synthetic losses and uses only the paper-scale byte/FLOP bookkeeping
(timing fidelity at full model size). Both expose identical interfaces so
every sync model runs unchanged in either mode.

Wire sizes: in numeric mode each mini-layer's byte count is scaled so the
whole model weighs exactly the paper-scale ``card.model_bytes``; in timing
mode layers follow :func:`repro.nn.models.registry.synthetic_layer_sizes`.
Either way OSP's GIB splits real per-layer byte distributions.
"""

from __future__ import annotations

import math
from typing import Mapping, Optional, Sequence

import numpy as np

from repro.autograd.tensor import no_grad
from repro.cluster.ps import ParameterServer
from repro.cluster.spec import GPU, ClusterSpec, TrainingPlan
from repro.core.pgp import layer_importance
from repro.core.splitter import GradientSplitter
from repro.data.dataset import Dataset
from repro.data.loader import BatchLoader
from repro.data.shard import shard_dirichlet, shard_iid
from repro.hardware.compute import ComputeModel
from repro.nn.loss import accuracy, cross_entropy, qa_span_accuracy, qa_span_loss
from repro.nn.models.registry import BYTES_PER_PARAM, ModelCard, synthetic_layer_sizes
from repro.optim.sgd import SGD

#: The timing engine's synthetic learning curves: the loss falls from
#: ``INITIAL_LOSS`` toward ``LOSS_FLOOR`` and the metric rises toward
#: ``MAX_METRIC``.
INITIAL_LOSS = 2.3
LOSS_FLOOR = 0.05
MAX_METRIC = 0.93

#: Test samples each numeric evaluation scores (the head of the test set).
EVAL_SAMPLES = 512


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


class NumericEngine(Engine):
    """Real gradients on mini-model replicas.

    Parameters
    ----------
    card:
        Workload card (timing numbers + mini-model factory).
    train, test:
        Datasets; ``train`` is sharded IID across workers.
    spec:
        Cluster description (worker count).
    batch_size:
        Mini-batch size for the numeric models (timing always uses the
        card's paper batch size).
    sharding:
        ``"iid"`` (default) or ``"dirichlet"`` — the non-IID regime the
        paper highlights as HSP's weakness (§2.2.1). ``dirichlet_alpha``
        controls the skew (smaller = more skewed).
    """

    def __init__(
        self,
        card: ModelCard,
        train: Dataset,
        test: Dataset,
        spec: ClusterSpec,
        batch_size: int = 16,
        seed: int = 0,
        sharding: str = "iid",
        dirichlet_alpha: float = 0.5,
    ) -> None:
        self.card = card
        self.spec = spec
        self.seed = seed
        self.test = test
        self.global_model = card.make_mini(seed=seed)
        self.replicas = [card.make_mini(seed=seed) for _ in range(spec.n_workers)]
        self._replica_params = [dict(r.named_parameters()) for r in self.replicas]
        if sharding == "iid":
            shards = shard_iid(train, spec.n_workers, seed=seed)
        elif sharding == "dirichlet":
            shards = shard_dirichlet(
                train, spec.n_workers, alpha=dirichlet_alpha, seed=seed
            )
        else:
            raise ValueError(f"unknown sharding {sharding!r}")
        # Dirichlet shards can be smaller than a batch; keep partial
        # batches there (IID keeps the fixed-size fast path).
        drop_last = sharding == "iid"
        self.loaders = [
            BatchLoader(
                s,
                batch_size=min(batch_size, len(s)) if not drop_last else batch_size,
                seed=seed + 1000 + w,
                drop_last=drop_last,
            )
            for w, s in enumerate(shards)
        ]
        self.shard_sizes = [len(s) for s in shards]
        self.splitter = GradientSplitter.from_module(self.global_model)
        sizes = {n: p.size for n, p in self.global_model.named_parameters()}
        raw = self.splitter.layer_bytes(sizes, bytes_per_param=BYTES_PER_PARAM)
        scale = card.model_bytes / sum(raw.values())
        self.layer_bytes = {l: int(round(b * scale)) for l, b in raw.items()}
        self._eval_model = card.make_mini(seed=seed)
        self._eval_model.eval()

    @property
    def iterations_per_epoch(self) -> int:
        # One epoch = a full pass over the *largest* shard; workers with
        # smaller shards wrap around (see the modulo in :meth:`compute`).
        # Under IID sharding all shards are equal so this is exact; under
        # Dirichlet sharding the alternative (min) would starve the big
        # shards of their own data.
        return max(l.batches_per_epoch for l in self.loaders)

    def make_ps(self, plan: TrainingPlan) -> ParameterServer:
        opt = SGD(
            self.global_model,
            lr=plan.lr,
            momentum=plan.momentum,
            weight_decay=plan.weight_decay,
        )
        weights = np.asarray(self.shard_sizes, dtype=float)
        return ParameterServer(
            self.global_model, opt, self.spec.n_workers, worker_weights=weights
        )

    def compute(self, worker: int, epoch: int, batch: int):
        model = self.replicas[worker]
        loader = self.loaders[worker]
        x, y = loader.batch(epoch, batch % loader.batches_per_epoch)
        model.train()
        model.zero_grad()
        if self.card.task == "classification":
            loss = cross_entropy(model(x), y)
        else:
            s_logits, e_logits = model(x)
            loss = qa_span_loss(s_logits, e_logits, y[:, 0], y[:, 1])
        loss.backward()
        grads = {
            name: p.grad.copy()
            for name, p in self._replica_params[worker].items()
            if p.grad is not None
        }
        # Virtual samples follow the paper-scale batch so throughput numbers
        # are comparable with timing-mode runs.
        return grads, float(loss.item()), self.card.batch_size

    def worker_params(self, worker: int) -> dict[str, np.ndarray]:
        return {n: p.data for n, p in self._replica_params[worker].items()}

    def sync_replica(
        self, worker: int, ps: ParameterServer, names: Optional[Sequence[str]] = None
    ) -> None:
        replica = self._replica_params[worker]
        for name, value in ps.snapshot(names, copy=False).items():
            replica[name].data[...] = value

    def evaluate(self, ps: ParameterServer, iterations_done: int) -> float:
        self._eval_model.load_state_dict(ps.snapshot(copy=False))
        # Train mode so BatchNorm uses batch statistics: the PS's canonical
        # model never runs forward passes, so it has no meaningful running
        # stats to evaluate with. No registry model has dropout, so train
        # mode is otherwise equivalent.
        self._eval_model.train()
        n = min(EVAL_SAMPLES, len(self.test))
        x = self.test.inputs[:n]
        y = self.test.targets[:n]
        with no_grad():
            if self.card.task == "classification":
                metric = accuracy(self._eval_model(x), y)
            else:
                s_logits, e_logits = self._eval_model(x)
                metric = qa_span_accuracy(s_logits, e_logits, y[:, 0], y[:, 1])
        self._trace_eval(metric, iterations_done)
        return metric

    def ps_layer_importance(self, ps: ParameterServer) -> dict[str, float]:
        grads = ps.last_aggregated
        params = ps.snapshot(copy=False)
        out: dict[str, float] = {}
        for layer, names in self.splitter.layer_params.items():
            if all(n in grads for n in names):
                out[layer] = layer_importance(
                    grads, params, {layer: names}
                )[layer]
            else:
                # Never-synchronized layer: treat as maximally important so
                # it stays in RS until we have evidence.
                out[layer] = float("inf")
        return out


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


__all__ = ["Engine", "NumericEngine", "TimingEngine"]
