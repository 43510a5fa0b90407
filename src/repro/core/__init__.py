"""OSP — the paper's primary contribution.

Pure algorithmic pieces (independently testable):

- :mod:`repro.core.pgp` — Parameter-Gradient Production importance (Eq. 1–4)
- :mod:`repro.core.gib` — Gradient Importance Bitmap encode/partition
- :mod:`repro.core.tuning` — Eq. 5 upper bound + Algorithm 1 S(G^u) ramp
- :mod:`repro.core.lgp` — Local-Gradient-based Parameter correction
  (Eq. 6–7) and the EMA-LGP variant (§4.2)
- :mod:`repro.core.splitter` — gradient splitter (Fig. 5 worker module)

The 2-stage synchronization model itself (RS + ICS worker/PS processes,
§4.3 degradation, §4.4 co-location) lives in :mod:`repro.core.osp` /
:mod:`repro.core.colocated`; multi-PS synchronization groups (§6.1) in
:mod:`repro.core.groups`.
"""

from repro._lazy import lazy_exports

__all__ = [
    "ColocatedOSP",
    "EMALGPCorrector",
    "GIB",
    "GradientSplitter",
    "LGPCorrector",
    "OSP",
    "SGuTuner",
    "SyncGroupPlan",
    "ics_upper_bound",
    "layer_importance",
    "pgp_importance",
    "plan_sync_groups",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    __all__,
    {
        ".pgp": ("layer_importance", "pgp_importance"),
        ".gib": ("GIB",),
        ".tuning": ("SGuTuner", "ics_upper_bound"),
        ".lgp": ("EMALGPCorrector", "LGPCorrector"),
        ".splitter": ("GradientSplitter",),
        ".osp": ("OSP",),
        ".colocated": ("ColocatedOSP",),
        ".groups": ("SyncGroupPlan", "plan_sync_groups"),
    },
)
