"""Learning-rate schedules operating on an :class:`~repro.optim.sgd.SGD`."""

from __future__ import annotations


class StepLR:
    """Multiply LR by ``gamma`` every ``step_epochs`` epochs.

    The paper's schedule (§5.1.3) is ``StepLR(opt, step_epochs=10, gamma=0.5)``.
    """

    def __init__(self, optimizer, step_epochs: int = 10, gamma: float = 0.5) -> None:
        if step_epochs < 1:
            raise ValueError(f"step_epochs must be >= 1, got {step_epochs}")
        if not (0 < gamma <= 1):
            raise ValueError(f"gamma must be in (0,1], got {gamma}")
        self.optimizer = optimizer
        self.base_lr = optimizer.lr
        self.step_epochs = step_epochs
        self.gamma = gamma

    def epoch_end(self, epoch: int) -> float:
        """Update LR after 0-indexed ``epoch`` finishes; returns the new LR."""
        decays = (epoch + 1) // self.step_epochs
        self.optimizer.lr = self.base_lr * (self.gamma**decays)
        return self.optimizer.lr


__all__ = ["StepLR"]
