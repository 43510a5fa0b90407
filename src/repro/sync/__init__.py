"""Synchronization-model zoo: the paper's baselines.

- :class:`BSP` — bulk synchronous parallel (global barrier; incast).
- :class:`ASP` — asynchronous parallel (independent push/pull; staleness).
- :class:`SSP` — stale synchronous parallel (bounded iteration gap).
- :class:`R2SP` — round-robin synchronization (serialized transfers that
  fully utilise the PS's duplex link; INFOCOM'19 baseline the paper
  compares against).
- :class:`SyncSwitch` — BSP early, ASP late (§2.2.1 related work, built as
  an extension/ablation).

All share the :class:`~repro.sync.base.SyncModel` worker-loop skeleton; OSP
itself lives in :mod:`repro.core.osp` (it is the paper's contribution, not
a baseline).
"""

from repro._lazy import lazy_exports

__all__ = [
    "ASP",
    "BSP",
    "CompressedBSP",
    "DSSP",
    "R2SP",
    "SSP",
    "ShardedBSP",
    "SyncModel",
    "SyncSwitch",
    "WFBP",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    __all__,
    {
        ".base": ("SyncModel",),
        ".bsp": ("BSP",),
        ".asp": ("ASP",),
        ".ssp": ("SSP",),
        ".r2sp": ("R2SP",),
        ".sync_switch": ("SyncSwitch",),
        ".multips": ("ShardedBSP",),
        ".dssp": ("DSSP",),
        ".compressed": ("CompressedBSP",),
        ".wfbp": ("WFBP",),
    },
)
