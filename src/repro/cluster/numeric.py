"""The numeric engine: real gradients on per-worker mini-model replicas.

The accuracy experiments' :class:`~repro.cluster.engines.Engine` (Figs. 6b,
6c, 7, 8). It is the only engine that imports the autograd/nn/optim/data
stack, which is why it lives apart from
:class:`~repro.cluster.engines.TimingEngine`: a timing run never loads it.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.autograd.tensor import no_grad
from repro.cluster.engines import Engine
from repro.cluster.ps import ParameterServer
from repro.cluster.spec import ClusterSpec, TrainingPlan
from repro.core.pgp import layer_importance
from repro.core.splitter import GradientSplitter
from repro.data.dataset import Dataset
from repro.data.loader import BatchLoader
from repro.data.shard import shard_dirichlet, shard_iid
from repro.nn.loss import accuracy, cross_entropy, qa_span_accuracy, qa_span_loss
from repro.nn.models.registry import BYTES_PER_PARAM, ModelCard
from repro.optim.sgd import SGD

#: Test samples each numeric evaluation scores (the head of the test set).
EVAL_SAMPLES = 512


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


__all__ = ["NumericEngine"]
