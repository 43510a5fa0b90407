"""Per-job views of the shared fabric.

A :class:`JobNetworkView` is what a co-tenant trainer receives as its
``network``: it translates job-local node ids to pool hosts, tags every
flow with the job name (per-job byte accounting in netsim), optionally
demotes the job's default-class traffic (background tenants), keeps the
job's own completed-flow records, and feeds the fabric-wide
:class:`FabricAccounting` that attributes cross-job interference. All
fabric-wide operations (capacity refreshes after faults, stats, link
lookups) delegate to the one shared :class:`~repro.netsim.network.Network`.

Everything here is passive bookkeeping — no events are scheduled — so a
single job routed through a view on an identity placement is bit-identical
to the same run through a privately-owned network.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.netsim.network import Network
from repro.netsim.prio import PRIO_NORMAL
from repro.netsim.topology import StarTopology


class FabricAccounting:
    """Cross-job interference attribution over the shared fabric.

    Driven by the views at flow start/completion; between those calls the
    active set is constant, so integrating per-job busy/contended seconds
    and pairwise overlap over the gaps is exact. A flow counts as
    *contended* when any other job had at least one active flow at its
    start instant.
    """

    def __init__(self) -> None:
        self.active: dict[str, int] = {}
        self.inflight_bytes: dict[str, float] = {}
        self.contended_bytes: dict[str, float] = {}
        self.solo_bytes: dict[str, float] = {}
        self.active_seconds: dict[str, float] = {}
        self.contended_seconds: dict[str, float] = {}
        #: frozenset({a, b}) -> seconds both jobs had flows in flight
        self.pair_overlap: dict[frozenset, float] = {}
        self._last = 0.0

    def _advance(self, now: float) -> None:
        dt = now - self._last
        self._last = now
        if dt <= 0.0:
            return
        busy = [job for job, n in self.active.items() if n > 0]
        for job in busy:
            self.active_seconds[job] = self.active_seconds.get(job, 0.0) + dt
        if len(busy) > 1:
            for job in busy:
                self.contended_seconds[job] = (
                    self.contended_seconds.get(job, 0.0) + dt
                )
            for i, a in enumerate(busy):
                for b in busy[i + 1:]:
                    key = frozenset((a, b))
                    self.pair_overlap[key] = self.pair_overlap.get(key, 0.0) + dt

    def on_start(self, job: str, size: float, now: float) -> None:
        self._advance(now)
        others = any(n > 0 for j, n in self.active.items() if j != job)
        bucket = self.contended_bytes if others else self.solo_bytes
        bucket[job] = bucket.get(job, 0.0) + size
        self.active[job] = self.active.get(job, 0) + 1
        self.inflight_bytes[job] = self.inflight_bytes.get(job, 0.0) + size

    def on_end(self, job: str, size: float, now: float) -> None:
        self._advance(now)
        self.active[job] = self.active.get(job, 0) - 1
        self.inflight_bytes[job] = self.inflight_bytes.get(job, 0.0) - size

    def job_summary(self, job: str) -> dict:
        """Attribution snapshot for one job (JSON-able)."""
        return {
            "contended_bytes": self.contended_bytes.get(job, 0.0),
            "solo_bytes": self.solo_bytes.get(job, 0.0),
            "active_seconds": self.active_seconds.get(job, 0.0),
            "contended_seconds": self.contended_seconds.get(job, 0.0),
        }


class MappedStarTopology(StarTopology):
    """A job-local window onto the pool's star.

    Local node ``i``'s up/down links *are* pool host ``node_map[i]``'s
    links (shared objects, not copies), so node-targeted fault windows
    expressed in job-local ids hit the right fabric links. Each local node
    keeps its host's rack, and the rack links are the pool's own.
    ``links`` is the job's slice of the fabric — its hosts' links plus the
    rack links — so a job's fabric-wide fault (``nodes=None``) degrades
    what its own traffic crosses, not every tenant's host links.
    """

    def __init__(self, base: StarTopology, node_map) -> None:
        # deliberately no super().__init__: links are borrowed, not built
        self.base = base
        self.node_map = list(node_map)
        self.n_nodes = len(self.node_map)
        self.default_spec = base.default_spec
        self.uplinks = [base.uplinks[h] for h in self.node_map]
        self.downlinks = [base.downlinks[h] for h in self.node_map]
        self.rack_of = [base.rack_of[h] for h in self.node_map]
        self.rack_uplinks = base.rack_uplinks
        self.rack_downlinks = base.rack_downlinks


class JobNetworkView:
    """A co-tenant trainer's window onto the shared Network.

    ``transfer``/``bulk_time`` translate job-local node ids through the
    placement's ``node_map`` and tag flows with the job name; completed
    flows are mirrored into the view's own :attr:`records`; everything
    else (``stats``, ``refresh_capacities``, ``link_utilization``,
    ``active_flows``, ``flow_hooks``, ``drain_hooks``, ...) delegates to the shared Network via
    ``__getattr__``. Probes and the fault injector read and call through
    it; monitors append to the *fabric's* hook lists — the view defines
    none — so the Network that actually drains calls them (a method
    patched onto the view instance is never called by the fabric).
    """

    def __init__(
        self,
        network: Network,
        job: str,
        node_map,
        accounting: Optional[FabricAccounting] = None,
        default_prio: Optional[int] = None,
    ) -> None:
        self._net = network
        self.env = network.env
        self.job = job
        self.node_map = list(node_map)
        self.accounting = accounting
        self.default_prio = default_prio
        #: This job's completed transfers only (the shared Network's
        #: ``records`` interleaves every tenant).
        self.records: list = []
        #: Recorder mirror slot — the trainer assigns its per-job recorder
        #: here (NOT on the shared Network, whose mirror stays unset so
        #: fabric counters never leak into one tenant's stream).
        self.recorder = None
        self.topology = MappedStarTopology(network.topology, self.node_map)

    # -- node mapping -------------------------------------------------------
    def _host(self, node) -> int:
        try:
            return self.node_map[node]
        except (IndexError, TypeError) as exc:
            raise ValueError(
                f"job {self.job!r} has no local node {node!r} "
                f"(placement has {len(self.node_map)} nodes)"
            ) from exc

    # -- traffic ------------------------------------------------------------
    def transfer(self, src, dst, size: float, tag: Any = None, prio: int = PRIO_NORMAL):
        if self.default_prio is not None and prio == PRIO_NORMAL:
            prio = self.default_prio
        done = self._net.transfer(
            self._host(src), self._host(dst), size, tag=tag, prio=prio, job=self.job
        )
        acct = self.accounting
        if acct is not None:
            acct.on_start(self.job, float(size), self.env.now)
            done.callbacks.append(
                lambda ev: acct.on_end(self.job, float(size), self.env.now)
            )
        done.callbacks.append(lambda ev: self.records.append(ev.value))
        return done

    def bulk_time(self, src, dst, size: float) -> float:
        return self._net.bulk_time(self._host(src), self._host(dst), size)

    def job_bytes(self) -> float:
        """Effective bytes the fabric has drained for this job so far."""
        return self._net.job_bytes(self.job)

    # -- delegation ---------------------------------------------------------
    def __getattr__(self, name: str):
        # only reached for attributes not set on the view itself
        return getattr(self._net, name)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<JobNetworkView job={self.job!r} nodes={len(self.node_map)}>"


__all__ = ["FabricAccounting", "JobNetworkView", "MappedStarTopology"]
