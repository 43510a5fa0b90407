"""The distributed-training engine: worker/PS processes on the simulator.

One engine serves both experiment families:

* **numeric mode** — workers hold real mini-model replicas and compute real
  gradients at their compute events; parameter updates execute in virtual-
  time order, so staleness (ASP) and partial/corrected updates (OSP's LGP)
  have their true numeric effect. Used for accuracy, iterations-to-accuracy
  and time-to-accuracy experiments (Figs. 6b, 6c, 7, 8).
* **timing mode** — gradients are byte counts from the paper-scale model
  cards; losses follow a calibrated synthetic curve. Used for throughput /
  BST / overhead experiments at the paper's real model sizes (Figs. 1, 2,
  3, 6a, 6d, 9).

Communication times always come from :mod:`repro.netsim`; compute times
from :mod:`repro.hardware`.
"""

from repro._lazy import lazy_exports

__all__ = [
    "ClusterSpec",
    "DistributedTrainer",
    "Engine",
    "NumericEngine",
    "ParameterServer",
    "Placement",
    "TimingEngine",
    "TrainerContext",
    "TrainingPlan",
    "TrainingResult",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    __all__,
    {
        ".spec": ("ClusterSpec", "Placement", "TrainingPlan"),
        ".ps": ("ParameterServer",),
        ".engines": ("Engine", "TimingEngine"),
        ".numeric": ("NumericEngine",),
        ".context": ("TrainerContext",),
        ".trainer": ("DistributedTrainer", "TrainingResult"),
    },
)
