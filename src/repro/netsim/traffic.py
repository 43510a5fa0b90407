"""Background (cross-) traffic generator.

Production racks are multi-tenant: training shares the ToR with storage,
logging, and other jobs. :func:`constant_background_load` injects such
cross-traffic as ordinary flows so the fluid scheduler makes training and
background flows contend realistically — used by the congestion
robustness study.
"""

from __future__ import annotations

from repro.netsim.network import Network
from repro.netsim.prio import PRIO_BULK
from repro.simcore.environment import Environment


def constant_background_load(
    env: Environment,
    network: Network,
    src: int,
    dst: int,
    load_fraction: float,
    chunk_seconds: float = 0.1,
    until: float | None = None,
):
    """Generator process: saturate a fraction of the src→dst path.

    Sends back-to-back chunks sized so that, alone, the path would be busy
    ``load_fraction`` of the time — a steady competing tenant. The chunk
    size is derived from the route's *effective* bottleneck bandwidth
    (nominal × fault ``bandwidth_factor``) re-read before every chunk, so
    the tenant tracks its advertised fraction through bandwidth-dip fault
    windows instead of silently overshooting with chunks sized for the
    healthy link.
    """
    if not (0.0 < load_fraction <= 1.0):
        raise ValueError(f"load_fraction must be in (0,1], got {load_fraction}")
    route = network.topology.route(src, dst)
    if not route:
        raise ValueError("background load needs a non-loopback path")
    count = 0
    while until is None or env.now < until:
        bottleneck = min(l.bandwidth for l in route)
        chunk = bottleneck * chunk_seconds * load_fraction
        yield network.transfer(
            src, dst, chunk, tag=("bg-load", count), prio=PRIO_BULK
        )
        count += 1
        idle = chunk_seconds * (1.0 - load_fraction)
        if idle > 0:
            yield env.timeout(idle)
    return count


__all__ = ["constant_background_load"]
