"""MiniVGG: a scaled-down VGG16 for the CIFAR-10 accuracy experiments.

Preserves VGG's defining property for this paper: a **parameter-heavy
fully-connected head** (most of VGG16's 138M parameters sit in fc layers),
which is why VGG shows the highest OSP-C PGP overhead in Fig. 9 — PGP cost
is O(params) while compute time is O(FLOPs).
"""

from __future__ import annotations

import numpy as np

from repro.autograd.tensor import Tensor
from repro.nn.layers import Conv2d, Flatten, Linear, MaxPool2d, ReLU
from repro.nn.module import Module, Sequential


class MiniVGG(Module):
    """VGG-style convnet: conv-conv-pool stacks + large fc head.

    Default input: (N, 3, 16, 16); output: class logits.
    """

    def __init__(
        self,
        n_classes: int = 10,
        image_size: int = 16,
        width: int = 8,
        head_width: int = 128,
        seed: int = 0,
    ) -> None:
        super().__init__()
        rng = np.random.default_rng(seed)
        if image_size % 4:
            raise ValueError(f"image_size must be divisible by 4, got {image_size}")
        self.features = Sequential(
            Conv2d(3, width, 3, rng, padding=1),  # RGB input
            ReLU(),
            Conv2d(width, width, 3, rng, padding=1),
            ReLU(),
            MaxPool2d(2),
            Conv2d(width, width * 2, 3, rng, padding=1),
            ReLU(),
            Conv2d(width * 2, width * 2, 3, rng, padding=1),
            ReLU(),
            MaxPool2d(2),
        )
        feat = width * 2 * (image_size // 4) ** 2
        self.classifier = Sequential(
            Flatten(),
            Linear(feat, head_width, rng),
            ReLU(),
            Linear(head_width, head_width, rng),
            ReLU(),
            Linear(head_width, n_classes, rng),
        )

    def forward(self, x) -> Tensor:
        if not isinstance(x, Tensor):
            x = Tensor(x)
        return self.classifier(self.features(x))


__all__ = ["MiniVGG"]
