"""Checkpoint/restore for distributed training runs.

``repro.ckpt`` captures the *complete* state of a run at an epoch
boundary — PS parameter/momentum planes, per-worker replicas, OSP
tuner/GIB state, RNG streams, fault schedules, and the metrics recorder —
into a single versioned, atomically-written ``.npz`` file.  A run resumed
from such a checkpoint (``DistributedTrainer(resume_from=...)``) continues
bit-identically to the uninterrupted run.  See ``docs/checkpointing.md``.
"""

from repro._lazy import lazy_exports

__all__ = [
    "FORMAT_VERSION",
    "Checkpoint",
    "CheckpointError",
    "CheckpointManager",
    "apply_checkpoint",
    "capture",
    "describe",
    "load_checkpoint",
    "params_plane",
    "verify_roundtrip",
    "write_checkpoint",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    __all__,
    {
        ".manager": ("CheckpointManager",),
        ".snapshot": (
            "FORMAT_VERSION",
            "Checkpoint",
            "CheckpointError",
            "apply_checkpoint",
            "capture",
            "describe",
            "load_checkpoint",
            "params_plane",
            "verify_roundtrip",
            "write_checkpoint",
        ),
    },
)
