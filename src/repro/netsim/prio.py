"""Transmission priority classes for the fluid-flow scheduler.

OSP's protocol stages have sharply different latency sensitivity: the RS
stage is barrier-closed (every worker waits on it), the GIB bitmap
broadcast gates the *next* round's classification, while ICS rounds and
injected background tenants are explicitly off the critical path (PAPER
§3, Fig. 5). P3 (Jayarajan et al., MLSys'19) showed that class-based
transmission scheduling recovers exactly the overlap a FIFO/fair-shared
fabric loses. This module defines the class lattice the
:class:`~repro.netsim.network.Network` scheduler uses:

=========  =====  =============================================
class      value  canonical traffic
=========  =====  =============================================
URGENT       3    GIB bitmap broadcasts (tiny, gates a round)
HIGH         2    RS push/pull (barrier-closed important grads)
NORMAL       1    unclassified traffic (the default)
BULK         0    ICS rounds, background/cross-tenant load
=========  =====  =============================================

Scheduling is strict-priority *per link*: a higher class starves lower
classes on every link they share; flows of equal class share by plain
max–min. When every active flow is in one class — any class — the
allocation degenerates to the plain solver and is bit-identical to the
pre-priority scheduler. P3's slice-boundary preemption is not modelled:
a higher-class arrival takes the link at once.

A fabric without class scheduling is a ``Network`` whose ``priorities``
attribute is set False before the run (``repro run --net-prio off`` does
this): every flow is admitted as NORMAL and the links are plainly
fair-shared.
"""

from __future__ import annotations

#: Strict-priority class values — higher value preempts lower per link.
PRIO_URGENT = 3
PRIO_HIGH = 2
PRIO_NORMAL = 1
PRIO_BULK = 0

#: Class value -> short name (counter suffixes, docs, dashboards).
CLASS_NAMES = {
    PRIO_URGENT: "urgent",
    PRIO_HIGH: "high",
    PRIO_NORMAL: "normal",
    PRIO_BULK: "bulk",
}

__all__ = [
    "CLASS_NAMES",
    "PRIO_BULK",
    "PRIO_HIGH",
    "PRIO_NORMAL",
    "PRIO_URGENT",
]
