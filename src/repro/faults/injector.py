"""Replays a :class:`~repro.faults.schedule.FaultSchedule` against a run.

The injector bridges the declarative schedule and the live simulation:

* network events become simcore processes that toggle multiplicative fault
  state on the targeted :class:`~repro.netsim.links.Link` objects and ask
  the :class:`~repro.netsim.network.Network` to re-run fair sharing;
* straggler windows are answered on demand via :meth:`compute_factor`,
  which the context multiplies into each iteration's compute time.

Crashes, joins and leaves are not replayed here: they are epoch-indexed,
and :class:`~repro.cluster.context.TrainerContext` reads them from the
spec's schedule as the run's membership timeline.

Every fired fault increments a ``faults.*`` counter on the run's
:class:`~repro.metrics.recorder.Recorder`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.cluster.context import TrainerContext

from repro.faults.schedule import (
    BandwidthDip,
    FaultSchedule,
    LinkFlap,
    LossBurst,
    StragglerSlowdown,
)
from repro.netsim.links import Link

#: Residual bandwidth factor for a flapped ("down") link. Not exactly zero:
#: max–min fair sharing needs positive capacities, and a crawling link is
#: the fluid-model analogue of TCP timeouts on a dead path.
FLAP_RESIDUAL = 1e-6


class FaultInjector:
    """Drives one schedule against one trainer context."""

    def __init__(self, ctx: "TrainerContext", schedule: FaultSchedule) -> None:
        self.ctx = ctx
        self.schedule = schedule
        self._started = False

    def start(self) -> None:
        """Spawn the window processes (idempotent)."""
        if self._started:
            return
        self._started = True
        for ev in self.schedule.network_events:
            self.ctx.env.process(self._network_window(ev))
        for ev in self.schedule.straggler_events:
            self.ctx.env.process(self._straggler_window(ev))

    # -- worker-side ---------------------------------------------------------
    def compute_factor(self, worker: int, now: float) -> float:
        """Product of active straggler factors for ``worker`` at ``now``."""
        factor = 1.0
        for ev in self.schedule.straggler_events:
            if ev.worker == worker and ev.start <= now < ev.start + ev.duration:
                factor *= ev.factor
        return factor

    # -- network-side --------------------------------------------------------
    def _fault_args(self, ev) -> dict:
        if isinstance(ev, LossBurst):
            return {"extra_loss": ev.loss_rate}
        if isinstance(ev, BandwidthDip):
            return {"bandwidth_factor": ev.factor}
        if isinstance(ev, LinkFlap):
            return {"bandwidth_factor": FLAP_RESIDUAL}
        raise TypeError(f"not a network fault: {ev!r}")  # pragma: no cover

    def _links_for(self, nodes) -> list[Link]:
        """The links a window degrades: each targeted node's host links, or
        with ``nodes=None`` every host link of the job plus the rack links
        (for the identity placement, ``topology.links``)."""
        topo = self.ctx.network.topology
        hosts = self.ctx.placement.hosts
        if nodes is None:
            return (
                [topo.uplinks[h] for h in hosts]
                + [topo.downlinks[h] for h in hosts]
                + topo.rack_uplinks
                + topo.rack_downlinks
            )
        links: list[Link] = []
        for n in nodes:  # ClusterSpec refuses a node the job lacks
            links.append(topo.uplinks[hosts[n]])
            links.append(topo.downlinks[hosts[n]])
        return links

    def _network_window(self, ev):
        links = self._links_for(ev.nodes)
        args = self._fault_args(ev)
        # Event times are absolute virtual seconds; on a checkpoint resume the
        # clock starts past zero, so windows already over are skipped and the
        # counter/instant only fires for windows this run actually starts
        # (the restored recorder holds the counts for windows fired earlier).
        now = self.ctx.env.now
        if ev.start + ev.duration <= now:
            return
        fresh = ev.start >= now
        if ev.start > now:
            yield self.ctx.env.timeout(ev.start - now)
        trace = self.ctx.trace
        if fresh:
            self.ctx.recorder.incr(f"faults.{ev.kind}")
            trace.instant(
                f"faults.{ev.kind}", actor="faults", track="faults",
                nodes=list(ev.nodes) if ev.nodes is not None else "all", **args,
            )
        span = trace.begin(
            f"faults.{ev.kind}", "faults", track="faults", cat="fault", **args
        )
        for link in links:
            link.apply_fault(**args)
        self.ctx.network.refresh_capacities()
        yield self.ctx.env.timeout(ev.start + ev.duration - self.ctx.env.now)
        for link in links:
            link.clear_fault(**args)
        self.ctx.network.refresh_capacities()
        trace.end(span)

    def _straggler_window(self, ev: StragglerSlowdown):
        now = self.ctx.env.now
        if ev.start + ev.duration <= now:
            return  # fully in the past (checkpoint resume)
        fresh = ev.start >= now
        if ev.start > now:
            yield self.ctx.env.timeout(ev.start - now)
        # The slowdown itself is applied via compute_factor(); this process
        # only stamps the counter at window start.
        trace = self.ctx.trace
        if fresh:
            self.ctx.recorder.incr("faults.straggler")
            trace.instant(
                "faults.straggler", actor="faults", track="faults",
                worker=ev.worker, factor=ev.factor,
            )
        if trace:
            # Only traced runs pay for the window-end wakeup; untraced runs
            # keep their exact event schedule (the slowdown needs no timer).
            span = trace.begin(
                "faults.straggler", "faults", track="faults", cat="fault",
                worker=ev.worker, factor=ev.factor,
            )
            yield self.ctx.env.timeout(ev.start + ev.duration - self.ctx.env.now)
            trace.end(span)


__all__ = ["FLAP_RESIDUAL", "FaultInjector"]
