"""Fluid-flow network simulator.

Models the paper's testbed (§5.1.1): *n* nodes, each with a full-duplex
link (uplink + downlink) into a top-of-rack switch with a non-blocking
backplane. Concurrent flows share link bandwidth by **max–min fairness**
(progressive filling), recomputed event-wise whenever a flow starts or
finishes — this is the standard fluid approximation of TCP-fair sharing and
is what makes the *incast problem* (Fig. 1) emerge naturally: N simultaneous
pushes into the PS's downlink each get ``b/N``.

Packet loss is modelled as goodput inflation: a route with loss rate ``p``
must move ``size × (1 + p)`` bytes (retransmissions), matching the
``b(1+lr)`` term in the paper's Eq. 5.

Public API
----------
:class:`Network` — facade; ``transfer(src, dst, size)`` returns a simcore
event that succeeds when the flow completes.
"""

from repro._lazy import lazy_exports

__all__ = [
    "CLASS_NAMES",
    "Flow",
    "FlowRecord",
    "Link",
    "LinkSpec",
    "Network",
    "PRIO_BULK",
    "PRIO_HIGH",
    "PRIO_NORMAL",
    "PRIO_URGENT",
    "StarTopology",
    "fair_rates",
    "prio_fair_rates",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    __all__,
    {
        ".links": ("Link", "LinkSpec"),
        ".topology": ("StarTopology",),
        ".fairshare": ("fair_rates", "prio_fair_rates"),
        ".flows": ("Flow", "FlowRecord"),
        ".network": ("Network",),
        ".prio": (
            "CLASS_NAMES",
            "PRIO_BULK",
            "PRIO_HIGH",
            "PRIO_NORMAL",
            "PRIO_URGENT",
        ),
    },
)
