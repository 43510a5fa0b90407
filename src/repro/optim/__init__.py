"""Optimisers and learning-rate schedules.

The paper's configuration (§5.1.3): SGD, initial LR 0.1, halved every 10
epochs (:class:`StepLR` with ``step_epochs=10, gamma=0.5``).
"""

from repro._lazy import lazy_exports

__all__ = ["SGD", "StepLR"]

__getattr__, __dir__ = lazy_exports(
    __name__,
    __all__,
    {
        ".sgd": ("SGD",),
        ".lr_scheduler": ("StepLR",),
    },
)
