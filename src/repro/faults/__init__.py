"""Fault injection: scheduled network/worker faults + PS-side resilience.

See :mod:`repro.faults.schedule` for the event taxonomy (network windows,
stragglers, and the membership timeline: crash, restart, join, leave) and
:mod:`repro.faults.injector` for how events are replayed against a live
simulation. PS-side resilience lives in the one synchronous round
(:meth:`repro.sync.base.SyncModel.sync_round` on a
:class:`repro.simcore.resources.QuorumBarrier`: degraded quorum for BSP and
its variants exactly as for OSP's RS) and in :class:`repro.core.osp.OSP`
(frozen ICS quorum, §4.3 BSP fallback).
"""

from repro._lazy import lazy_exports

__all__ = [
    "BandwidthDip",
    "EVENT_KINDS",
    "FLAP_RESIDUAL",
    "FaultEvent",
    "FaultInjector",
    "FaultSchedule",
    "LinkFlap",
    "LossBurst",
    "StragglerSlowdown",
    "WorkerCrash",
    "WorkerJoin",
    "WorkerLeave",
    "parse_faults",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    __all__,
    {
        ".injector": ("FLAP_RESIDUAL", "FaultInjector"),
        ".schedule": (
            "BandwidthDip",
            "EVENT_KINDS",
            "FaultEvent",
            "FaultSchedule",
            "LinkFlap",
            "LossBurst",
            "StragglerSlowdown",
            "WorkerCrash",
            "WorkerJoin",
            "WorkerLeave",
            "parse_faults",
        ),
    },
)
