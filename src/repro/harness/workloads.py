"""Workload builders shared by benchmarks and examples."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Optional

from repro.cluster.engines import TimingEngine
from repro.cluster.spec import ClusterSpec, TrainingPlan
from repro.cluster.trainer import DistributedTrainer
from repro.faults.schedule import FaultSchedule
from repro.hardware.jitter import DEFAULT_STREAMS, LognormalJitter
from repro.nn.models.registry import ModelCard, get_card

if TYPE_CHECKING:
    from repro.data.dataset import Dataset

#: The five workloads of the paper's evaluation (§5.1.2), in figure order.
EVALUATION_WORKLOADS: tuple[str, ...] = (
    "resnet50-cifar10",
    "vgg16-cifar10",
    "inceptionv3-cifar100",
    "resnet101-imagenet",
    "bertbase-squad",
)

#: Default compute-time jitter for timing experiments: mild OS/datapath
#: noise, the realistic regime for the paper's homogeneous rack.
DEFAULT_SIGMA = 0.1


@dataclass(frozen=True)
class WorkloadConfig:
    """Knobs shared by timing and numeric experiment builders."""

    card_name: str
    n_workers: int = 8
    n_epochs: int = 30
    iterations_per_epoch: int = 8
    sigma: float = DEFAULT_SIGMA
    seed: int = 0
    colocated_ps: bool = False
    n_ps: int = 1
    #: fault windows and the membership timeline (crash, join, leave)
    faults: Optional[FaultSchedule] = None

    @property
    def card(self) -> ModelCard:
        return get_card(self.card_name)

    @property
    def total_iterations(self) -> int:
        return self.n_epochs * self.iterations_per_epoch

    def check(self) -> None:
        """Raise the ``ValueError`` a trainer builder would, now — for a
        caller (a co-tenant job) whose trainer is only built mid-run."""
        _spec(self)
        TrainingPlan(
            n_epochs=self.n_epochs,
            iterations_per_epoch=self.iterations_per_epoch,
            seed=self.seed,
        )


def _spec(cfg: WorkloadConfig) -> ClusterSpec:
    return ClusterSpec(
        n_workers=cfg.n_workers,
        jitter=LognormalJitter(
            sigma=cfg.sigma,
            seed=cfg.seed,
            n_workers=max(DEFAULT_STREAMS, cfg.n_workers),
        ),
        colocated_ps=cfg.colocated_ps,
        n_ps=cfg.n_ps,
        faults=cfg.faults,
    )


def timing_trainer(cfg: WorkloadConfig, sync_model, **trainer_kwargs) -> DistributedTrainer:
    """Paper-scale timing-mode trainer for one (workload, sync) pair.

    Extra keyword arguments (``checkpoint_every``, ``resume_from``, ...)
    are forwarded to :class:`DistributedTrainer`.
    """
    spec = _spec(cfg)
    plan = TrainingPlan(
        n_epochs=cfg.n_epochs,
        iterations_per_epoch=cfg.iterations_per_epoch,
        seed=cfg.seed,
    )
    # Loss decays within the run so Algorithm 1's ramp completes (the paper
    # trains to convergence; our epoch budget is smaller).
    engine = TimingEngine(
        cfg.card,
        spec,
        total_iterations=cfg.total_iterations,
        seed=cfg.seed,
        tau=max(1.0, cfg.total_iterations / 6.0),
    )
    return DistributedTrainer(spec, plan, engine, sync_model, **trainer_kwargs)


def make_numeric_dataset(card: ModelCard, n_samples: int = 1600, seed: int = 0) -> tuple[Dataset, Dataset]:
    """(train, test) synthetic datasets matched to a card's mini model."""
    from repro.data.dataset import train_test_split
    from repro.data.synthetic_images import make_image_classification
    from repro.data.synthetic_qa import make_extractive_qa

    if card.task == "qa":
        ds = make_extractive_qa(n_samples, seq_len=16, vocab_size=64, seed=seed)
    else:
        n_classes = {"cifar10": 10, "cifar100": 20, "imagenet1k": 20}.get(
            card.dataset, 10
        )
        ds = make_image_classification(
            n_samples,
            n_classes=n_classes,
            image_size=16,
            noise=2.0,
            seed=seed,
        )
    return train_test_split(ds, test_fraction=0.25, seed=seed + 1)


def numeric_trainer(
    cfg: WorkloadConfig,
    sync_model,
    data: Optional[tuple[Dataset, Dataset]] = None,
    batch_size: int = 25,
    lr: float = 0.1,
    early_stop_patience: Optional[int] = None,
    **trainer_kwargs,
) -> DistributedTrainer:
    """Numeric-mode trainer: real gradients on the card's mini model,
    paper-scale timing, the paper's LR schedule (§5.1.3). Extra keyword
    arguments are forwarded to :class:`DistributedTrainer`."""
    from repro.cluster.numeric import NumericEngine

    card = cfg.card
    if data is None:
        data = make_numeric_dataset(card, seed=cfg.seed)
    train, test = data
    spec = _spec(cfg)
    plan = TrainingPlan(
        n_epochs=cfg.n_epochs,
        lr=lr,
        momentum=0.9,
        lr_step_epochs=10,
        lr_gamma=0.5,
        early_stop_patience=early_stop_patience,
        seed=cfg.seed,
    )
    engine = NumericEngine(
        card, train, test, spec, batch_size=batch_size, seed=cfg.seed
    )
    return DistributedTrainer(spec, plan, engine, sync_model, **trainer_kwargs)


__all__ = [
    "DEFAULT_SIGMA",
    "EVALUATION_WORKLOADS",
    "WorkloadConfig",
    "make_numeric_dataset",
    "numeric_trainer",
    "timing_trainer",
]
