"""Model cards: paper-scale workload descriptions.

The accuracy experiments run *mini* models numerically; the timing
experiments (throughput, BST, Fig. 3/6a/6d/9) use the **paper-scale**
parameter and FLOP counts recorded here, so communication/computation
ratios match the paper's testbed. Parameter counts and per-sample forward
FLOPs are the standard published numbers for each architecture at the
paper's input resolutions.

``synthetic_layer_sizes`` generates a deterministic per-layer parameter
split with each family's characteristic skew (VGG: giant fc head; ResNet:
geometric channel growth; Inception: many mid-sized branches; BERT: uniform
blocks plus a large embedding), which OSP's layer-granular GIB splitting
operates on in timing mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

#: gradients travel as float32 on the wire.
BYTES_PER_PARAM = 4


@dataclass(frozen=True)
class ModelCard:
    """Paper-scale description of one evaluation workload (§5.1.2)."""

    name: str
    family: str  # 'vgg' | 'resnet' | 'inception' | 'bert'
    dataset: str
    task: str  # 'classification' | 'qa'
    paper_params: int
    paper_flops_per_sample: float
    paper_layers: int
    batch_size: int
    metric: str  # 'top1' | 'f1'
    mini_factory: Callable[[int], object]  # seed -> Module
    #: Relative kernel efficiency vs. the GPU's baseline: convnets with
    #: balanced conv stacks ≈ 1.0; VGG's giant memory-bound FC layers and
    #: fp32 long-sequence attention run well below the GPU's typical
    #: training efficiency. Effective FLOP/s = gpu.achieved × this factor.
    efficiency_factor: float = 1.0

    @property
    def model_bytes(self) -> int:
        """Full gradient/model size on the wire."""
        return self.paper_params * BYTES_PER_PARAM

    def make_mini(self, seed: int = 0):
        """Instantiate the mini-scale model for numeric training."""
        return self.mini_factory(seed)


def synthetic_layer_sizes(card: ModelCard) -> np.ndarray:
    """Per-layer parameter counts (ints) summing exactly to paper_params."""
    l = card.paper_layers
    if card.family == "vgg":
        # 13 conv layers growing geometrically + 3 fc layers holding ~80%
        # of all parameters (VGG16's fc6 alone is 102M of 138M).
        n_conv = l - 3
        conv = np.geomspace(1.0, 40.0, n_conv)
        fc = np.array([280.0, 45.0, 11.0]) * conv.sum() / 80.0
        weights = np.concatenate([conv, fc])
    elif card.family == "resnet":
        # Channel counts double every stage: parameters per block grow 4x.
        stage = np.repeat(np.arange(4), np.diff(np.linspace(0, l, 5).astype(int)))
        weights = 4.0**stage * (1.0 + 0.1 * np.arange(l) / l)
    elif card.family == "inception":
        # Many mid-sized branch convs with mild growth, small head.
        weights = np.geomspace(1.0, 6.0, l)
    elif card.family == "bert":
        # Embedding matrix ~21% of BERT-base; encoder layers uniform.
        weights = np.ones(l)
        weights[0] = 0.27 * (l - 1)
    else:
        raise ValueError(f"unknown family {card.family!r}")

    raw = weights / weights.sum() * card.paper_params
    sizes = np.floor(raw).astype(np.int64)
    sizes[-1] += card.paper_params - sizes.sum()  # exact total
    if (sizes <= 0).any():
        raise RuntimeError(f"degenerate layer sizes for {card.name}")
    return sizes


# Each mini model is imported by its factory: a timing run reads the cards'
# paper-scale numbers and never builds one, so it never loads the nn stack.
def _mini_resnet(n_classes: int, blocks_per_stage: tuple[int, int], seed: int):
    from repro.nn.models.resnet import MiniResNet

    return MiniResNet(n_classes=n_classes, blocks_per_stage=blocks_per_stage, seed=seed)


def _mini_vgg(seed: int):
    from repro.nn.models.vgg import MiniVGG

    return MiniVGG(n_classes=10, seed=seed)


def _mini_inception(seed: int):
    from repro.nn.models.inception import MiniInception

    return MiniInception(n_classes=20, seed=seed)


def _tiny_bert(seed: int):
    from repro.nn.models.bert import TinyBERT

    return TinyBERT(seed=seed)


MODEL_CARDS: dict[str, ModelCard] = {
    card.name: card
    for card in [
        ModelCard(
            name="resnet50-cifar10",
            family="resnet",
            dataset="cifar10",
            task="classification",
            paper_params=25_557_032,
            paper_flops_per_sample=4.1e9,
            paper_layers=54,
            batch_size=64,
            metric="top1",
            mini_factory=partial(_mini_resnet, 10, (1, 1)),
        ),
        ModelCard(
            name="vgg16-cifar10",
            family="vgg",
            dataset="cifar10",
            task="classification",
            paper_params=138_357_544,
            paper_flops_per_sample=15.5e9,
            paper_layers=16,
            batch_size=64,
            metric="top1",
            mini_factory=_mini_vgg,
            efficiency_factor=0.7,  # memory-bound fc6/fc7
        ),
        ModelCard(
            name="inceptionv3-cifar100",
            family="inception",
            dataset="cifar100",
            task="classification",
            paper_params=23_851_784,
            paper_flops_per_sample=5.7e9,
            paper_layers=94,
            batch_size=64,
            metric="top1",
            mini_factory=_mini_inception,
        ),
        ModelCard(
            name="resnet101-imagenet",
            family="resnet",
            dataset="imagenet1k",
            task="classification",
            paper_params=44_549_160,
            paper_flops_per_sample=7.8e9,
            paper_layers=104,
            batch_size=64,
            metric="top1",
            mini_factory=partial(_mini_resnet, 20, (2, 2)),
        ),
        ModelCard(
            # §1 motivation experiment (comm overhead on RTX 2080 Ti vs 3090).
            name="resnet152-cifar10",
            family="resnet",
            dataset="cifar10",
            task="classification",
            paper_params=60_192_808,
            paper_flops_per_sample=11.5e9,
            paper_layers=155,
            batch_size=64,
            metric="top1",
            mini_factory=partial(_mini_resnet, 10, (2, 3)),
        ),
        ModelCard(
            name="bertbase-squad",
            family="bert",
            dataset="squad1.1",
            task="qa",
            paper_params=109_482_240,
            paper_flops_per_sample=4.5e10,
            paper_layers=199,
            batch_size=12,
            metric="f1",
            mini_factory=_tiny_bert,
            efficiency_factor=0.45,  # fp32 seq-384 attention, small batch
        ),
    ]
}


def get_card(name: str) -> ModelCard:
    """Look up a model card by name (KeyError lists known names)."""
    try:
        return MODEL_CARDS[name]
    except KeyError:
        raise KeyError(
            f"unknown model card {name!r}; known: {', '.join(sorted(MODEL_CARDS))}"
        ) from None


__all__ = [
    "BYTES_PER_PARAM",
    "MODEL_CARDS",
    "ModelCard",
    "get_card",
    "synthetic_layer_sizes",
]
