"""MiniResNet: scaled-down ResNet-50/101 family for accuracy experiments.

Keeps residual connections and batch normalisation — the elements that give
ResNets their distinct optimisation dynamics under stale/partial updates.
"""

from __future__ import annotations

import numpy as np

from repro.autograd import functional as F
from repro.autograd.tensor import Tensor
from repro.nn.layers import BatchNorm2d, Conv2d, Linear
from repro.nn.module import Module, Sequential


class ResidualBlock(Module):
    """Basic residual block: conv-bn-relu-conv-bn + skip, relu."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        rng: np.random.Generator,
        stride: int = 1,
    ) -> None:
        super().__init__()
        self.conv1 = Conv2d(in_channels, out_channels, 3, rng, stride=stride, padding=1, bias=False)
        self.bn1 = BatchNorm2d(out_channels)
        self.conv2 = Conv2d(out_channels, out_channels, 3, rng, padding=1, bias=False)
        self.bn2 = BatchNorm2d(out_channels)
        if stride != 1 or in_channels != out_channels:
            self.shortcut = Conv2d(in_channels, out_channels, 1, rng, stride=stride, bias=False)
        else:
            self.shortcut = None

    def forward(self, x: Tensor) -> Tensor:
        out = self.bn1(self.conv1(x)).relu()
        out = self.bn2(self.conv2(out))
        skip = x if self.shortcut is None else self.shortcut(x)
        return (out + skip).relu()


class MiniResNet(Module):
    """Stem conv + stages of residual blocks + global pool + linear head.

    ``blocks_per_stage`` controls depth: (1, 1) is a "MiniResNet50" stand-in,
    (2, 2) a deeper "MiniResNet101" stand-in.
    """

    def __init__(
        self,
        n_classes: int = 10,
        width: int = 8,
        blocks_per_stage: tuple[int, ...] = (1, 1),
        seed: int = 0,
    ) -> None:
        super().__init__()
        rng = np.random.default_rng(seed)
        self.stem = Conv2d(3, width, 3, rng, padding=1, bias=False)  # RGB input
        self.stem_bn = BatchNorm2d(width)
        stages: list[Module] = []
        channels = width
        for stage_idx, n_blocks in enumerate(blocks_per_stage):
            out_ch = width * (2**stage_idx)
            for block_idx in range(n_blocks):
                stride = 2 if (stage_idx > 0 and block_idx == 0) else 1
                stages.append(ResidualBlock(channels, out_ch, rng, stride=stride))
                channels = out_ch
        self.stages = Sequential(*stages)
        self.head = Linear(channels, n_classes, rng)

    def forward(self, x) -> Tensor:
        if not isinstance(x, Tensor):
            x = Tensor(x)
        out = self.stem_bn(self.stem(x)).relu()
        out = self.stages(out)
        out = F.global_avg_pool2d(out)
        return self.head(out)


__all__ = ["MiniResNet", "ResidualBlock"]
