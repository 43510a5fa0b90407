"""repro — reproduction of OSP (ICPP 2023): 2-stage synchronization for
Parameter-Server-based distributed deep learning, on a fully simulated
cluster (discrete-event network + compute simulation, NumPy autodiff).

Public API highlights
---------------------
- :mod:`repro.simcore` — discrete-event simulation kernel.
- :mod:`repro.netsim` — fluid-flow network simulator (incast, stragglers).
- :mod:`repro.hardware` — GPU/compute-time models.
- :mod:`repro.autograd`, :mod:`repro.nn`, :mod:`repro.optim` — NumPy deep
  learning stack used for the accuracy-fidelity experiments.
- :mod:`repro.data` — synthetic image/QA datasets and sharding.
- :mod:`repro.sync` — BSP / ASP / SSP / R2SP / Sync-Switch baselines.
- :mod:`repro.core` — OSP itself (PGP, GIB, Algorithm 1, LGP, OSP-C).
- :mod:`repro.cluster` — the distributed trainer tying it all together.
- :mod:`repro.harness` — paper workloads and figure experiments.
"""

from repro._lazy import lazy_exports

__all__ = ["__version__"]

__getattr__, __dir__ = lazy_exports(
    __name__,
    __all__,
    {
        ".version": ("__version__",),
    },
)
