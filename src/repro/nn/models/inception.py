"""MiniInception: scaled-down InceptionV3 for the CIFAR-100 workload.

Preserves Inception's defining property for this paper: **FLOP-heavy,
parameter-light** parallel branches — the opposite end of the spectrum from
VGG, which is why Inception shows the *lowest* OSP-C overhead in Fig. 9.
"""

from __future__ import annotations

import numpy as np

from repro.autograd import functional as F
from repro.autograd.tensor import Tensor, concatenate
from repro.nn.layers import BatchNorm2d, Conv2d, Linear, MaxPool2d
from repro.nn.module import Module, Sequential


class InceptionBlock(Module):
    """Parallel 1x1 / 3x3 / double-3x3 / pool-1x1 branches, concatenated."""

    def __init__(self, in_channels: int, branch_channels: int, rng: np.random.Generator) -> None:
        super().__init__()
        c = branch_channels
        self.b1 = Conv2d(in_channels, c, 1, rng)
        self.b2_reduce = Conv2d(in_channels, c, 1, rng)
        self.b2 = Conv2d(c, c, 3, rng, padding=1)
        self.b3_reduce = Conv2d(in_channels, c, 1, rng)
        self.b3a = Conv2d(c, c, 3, rng, padding=1)
        self.b3b = Conv2d(c, c, 3, rng, padding=1)
        self.b4 = Conv2d(in_channels, c, 1, rng)
        self.out_channels = 4 * c

    def forward(self, x: Tensor) -> Tensor:
        y1 = self.b1(x).relu()
        y2 = self.b2(self.b2_reduce(x).relu()).relu()
        y3 = self.b3b(self.b3a(self.b3_reduce(x).relu()).relu()).relu()
        # Pool branch: 2x2 avg pool with stride 1 is approximated by identity
        # smoothing via 1x1 conv (keeps geometry simple at 16x16 scale).
        y4 = self.b4(x).relu()
        return concatenate([y1, y2, y3, y4], axis=1)


class MiniInception(Module):
    """Stem + inception blocks + global pool + classifier."""

    def __init__(
        self,
        n_classes: int = 100,
        width: int = 8,
        n_blocks: int = 2,
        seed: int = 0,
    ) -> None:
        super().__init__()
        rng = np.random.default_rng(seed)
        self.stem = Conv2d(3, width, 3, rng, padding=1)  # RGB input
        self.stem_bn = BatchNorm2d(width)
        self.pool = MaxPool2d(2)
        blocks: list[Module] = []
        channels = width
        for _ in range(n_blocks):
            block = InceptionBlock(channels, width, rng)
            blocks.append(block)
            channels = block.out_channels
        self.blocks = Sequential(*blocks)
        self.head = Linear(channels, n_classes, rng)

    def forward(self, x) -> Tensor:
        if not isinstance(x, Tensor):
            x = Tensor(x)
        out = self.stem_bn(self.stem(x)).relu()
        out = self.pool(out)
        out = self.blocks(out)
        out = F.global_avg_pool2d(out)
        return self.head(out)


__all__ = ["InceptionBlock", "MiniInception"]
