"""Learning-rate schedules operating on an :class:`~repro.optim.sgd.SGD`."""

from __future__ import annotations

from repro.bounds import COUNT, FRACTION, check_bounds


class StepLR:
    """Multiply LR by ``gamma`` every ``step_epochs`` epochs.

    The paper's schedule (§5.1.3) is ``StepLR(opt, step_epochs=10, gamma=0.5)``.
    """

    BOUNDS = {"step_epochs": COUNT, "gamma": FRACTION}

    def __init__(self, optimizer, step_epochs: int = 10, gamma: float = 0.5) -> None:
        self.optimizer = optimizer
        self.base_lr = optimizer.lr
        self.step_epochs = step_epochs
        self.gamma = gamma
        check_bounds(self)

    def epoch_end(self, epoch: int) -> float:
        """Update LR after 0-indexed ``epoch`` finishes; returns the new LR."""
        decays = (epoch + 1) // self.step_epochs
        self.optimizer.lr = self.base_lr * (self.gamma**decays)
        return self.optimizer.lr


__all__ = ["StepLR"]
