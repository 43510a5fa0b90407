"""Optimisers and learning-rate schedules.

The paper's configuration (§5.1.3): SGD, initial LR 0.1, halved every 10
epochs (:class:`StepLR` with ``step_epochs=10, gamma=0.5``).
"""

from repro.optim.sgd import SGD
from repro.optim.lr_scheduler import StepLR

__all__ = ["SGD", "StepLR"]
