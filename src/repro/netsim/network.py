"""The Network facade: event-driven fluid-flow transfer scheduling.

Whenever a flow starts or finishes, the scheduler (1) *drains* all active
flows by their current rates over the elapsed interval, (2) recomputes
max–min fair rates, and (3) schedules a wake-up at the earliest projected
completion. Wake-ups are versioned so a superseded timer is ignored rather
than cancelled (the kernel has no cancellation primitive — versioning is
cheaper and deterministic).

The :class:`~repro.netsim.flows.Flow` objects are the only record of
``remaining``/``rate``: the drain and the completion horizon are one scalar
loop each over the active flows.

Scaling machinery (the solver it calls has its own: a round whose bottleneck
carries every unfrozen flow ends the solve — see :mod:`.fairshare`):

* **Coalesced rerates** — flow starts batch same-instant work into a single
  fair-share recompute via :meth:`Environment.defer` instead of re-solving
  once per ``transfer()``. Virtual-time outcomes are unchanged: no bytes
  move within an instant, intermediate allocations are unobservable, and
  the coalesced solve sees exactly the flow set the last per-event solve
  would have seen.
* **Decoupled-delta skipping** — when every flow added/removed since the
  last solve rides links carrying no *other* flow, the surviving rates are
  provably unchanged and a new flow's rate is exactly the min capacity on
  its route, so the solver is skipped outright (``netsim.rerate_skipped``).
* **Route caching** — interned ``(route, link-name tuple)`` per (src, dst),
  so the solver never rebuilds name lists and topologies are only asked to
  route each pair once. Topologies are static by contract (fault windows
  change link *attributes*, never the link set or routes).

``flow_hooks`` and ``drain_hooks`` are the two moments an observer can
subscribe to (:mod:`repro.check` does): a flow going on the wire, and the
end of every drain. ``stats`` tracks the ``netsim.*`` counters registered in
:mod:`repro.obs.registry`; when a :class:`~repro.metrics.recorder.Recorder`
is attached (the trainer does) they are mirrored there for summaries and
checkpoints. Replay streams exclude the ``netsim.`` namespace: it counts
how *often* the scheduler recomputes, not what it computes.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Any, Iterable, Optional

from repro.netsim.fairshare import _SAT_REL, fair_rates, prio_fair_rates
from repro.netsim.flows import Flow, FlowRecord
from repro.netsim.links import Link
from repro.netsim.prio import CLASS_NAMES, PRIO_NORMAL
from repro.netsim.topology import StarTopology
from repro.simcore.environment import Environment
from repro.simcore.events import Event
from repro.simcore.priority import URGENT

#: Flows with fewer remaining effective bytes than this are complete.
_BYTE_EPS = 1e-6

#: Per-class drained-byte counter names, indexed by class value.
_BYTE_COUNTERS = tuple(
    f"netsim.prio_bytes.{CLASS_NAMES[cls]}" for cls in range(4)
)


def _job_counter(job: str) -> str:
    """Drained-byte counter name for a job-tagged flow.

    Matches the ``netsim.job_bytes.{job}`` template registered in
    :mod:`repro.obs.registry`.
    """
    return f"netsim.job_bytes.{job}"


class Network:
    """Transfer scheduler over a topology.

    Parameters
    ----------
    env:
        Simulation environment (clock source and event queue).
    topology:
        Any object exposing ``route``, ``route_latency``, ``route_loss`` and
        ``links`` (see :class:`~repro.netsim.topology.StarTopology`).
    keep_records:
        If True (default), completed transfers are appended to
        :attr:`records` for post-hoc analysis (BST breakdowns, Fig. 1/2
        timelines).
    max_records:
        Optional cap on :attr:`records`. When set, the newest
        ``max_records`` records are kept (keep-latest ring) and each drop
        increments the ``netsim.records_dropped`` counter — long
        elastic/fault runs with records enabled stay memory-bounded.
    priorities:
        Whether the fabric schedules by priority class (default). It is a
        plain attribute read when a flow is admitted: while False, every
        flow enters as NORMAL/unit-weight/unsliced and the links are
        plainly fair-shared. Set it before the run starts.
    """

    def __init__(
        self,
        env: Environment,
        topology: StarTopology,
        keep_records: bool = True,
        max_records: Optional[int] = None,
        priorities: bool = True,
    ) -> None:
        self.env = env
        self.topology = topology
        self.keep_records = keep_records
        self.max_records = max_records
        self.priorities = priorities
        if keep_records and max_records is not None:
            self.records = deque(maxlen=max_records)
        else:
            self.records: list[FlowRecord] = []
        #: Optional Recorder mirror for the ``netsim.*`` counters in
        #: :attr:`stats` (the trainer attaches its recorder).
        self.recorder = None
        #: Subscribers (``repro.obs.registry.HOOKS``): ``flow_hooks`` get each
        #: :class:`Flow` as it goes on the wire, ``drain_hooks`` no arguments.
        self.flow_hooks: list = []
        self.drain_hooks: list = []
        #: Scheduler work counters (see repro.obs.registry COUNTERS).
        self.stats: dict[str, int] = {
            "netsim.rerates": 0,
            "netsim.rerate_skipped": 0,
            "netsim.fairshare_calls": 0,
            "netsim.records_dropped": 0,
            "netsim.prio_preemptions": 0,
            "netsim.prio_bytes.bulk": 0.0,
            "netsim.prio_bytes.normal": 0.0,
            "netsim.prio_bytes.high": 0.0,
            "netsim.prio_bytes.urgent": 0.0,
        }
        self._active: dict[int, Flow] = {}
        self._next_fid = 0
        self._last_update = env.now
        self._timer_version = 0
        self._capacities = {l.name: l.bandwidth for l in topology.links}
        self._links_by_name = {l.name: l for l in topology.links}

        #: Active-flow count per priority class (multi-class detector).
        self._class_count: dict[int, int] = {}
        #: Active flows with a non-unit weight / with slicing enabled.
        self._weighted_count = 0
        self._sliced_count = 0
        #: fids locked mid-slice by the last priority solve (their rates
        #: are pinned until the slice boundary).
        self._locked: list[int] = []
        self._route_cache: dict[tuple, tuple[tuple[Link, ...], tuple[str, ...]]] = {}
        #: active-flow count per link name (decoupling detector).
        self._link_load: dict[str, int] = {}
        #: True while a coalesced rerate is armed for the current instant.
        self._pending = False
        #: fids added since the last rate assignment.
        self._pending_new: list[int] = []
        #: True while every active flow's rate matches a full solve over the
        #: current flow set and capacities (trivially true when empty).
        self._rated = True
        #: set when a non-decoupled add/remove or a capacity change forces
        #: the next rerate through the solver.
        self._solver_dirty = False
        #: Persistent fid -> route-name-tuple map for the solver. fids are
        #: handed out in increasing order and never reused, so dict
        #: insertion order *is* sorted-fid order.
        self._solver_routes: dict[int, tuple[str, ...]] = {}
        #: Parallel fid -> class / weight maps for the priority solver.
        self._solver_prios: dict[int, int] = {}
        self._solver_weights: dict[int, float] = {}

    # ------------------------------------------------------------------ API
    @property
    def active_flows(self) -> list[Flow]:
        """Snapshot of in-flight flows by flow id (insertion order: fids only grow)."""
        return list(self._active.values())

    def transfer(
        self,
        src,
        dst,
        size: float,
        tag: Any = None,
        prio: int = PRIO_NORMAL,
        weight: Optional[float] = None,
        slice_bytes: Optional[float] = None,
        job: Optional[str] = None,
    ) -> Event:
        """Start a transfer of ``size`` payload bytes from ``src`` to ``dst``.

        Returns an event that succeeds with a :class:`FlowRecord` when the
        last byte arrives (serialisation under fair sharing + route latency).
        Loopback (``src == dst``) completes after zero time at the same
        instant, modelling co-located PS communication through shared memory.

        ``prio`` picks the strict-priority class (repro.netsim.prio
        constants); ``weight`` is the flow's DRR weight for weighted
        sharing *within* the class (default 1.0); ``slice_bytes`` enables
        P3-style slicing — under multi-class contention the flow only
        accepts a *new* rate at slice boundaries, modelling bounded
        preemption latency. All three are ignored (coerced to
        NORMAL/unit/unsliced) while :attr:`priorities` is False.

        ``job`` attributes the flow to a co-tenant training job: its
        drained bytes are accounted to ``netsim.job_bytes.{job}``.
        Untagged transfers (the single-tenant default) skip the job
        accounting path entirely.
        """
        if size < 0:
            raise ValueError(f"negative transfer size {size}")
        if prio not in CLASS_NAMES:
            raise ValueError(f"unknown priority class {prio!r}")
        if not self.priorities:
            prio, weight, slice_bytes = PRIO_NORMAL, 1.0, None
        elif weight is None:
            weight = 1.0
        elif not weight > 0:
            raise ValueError(f"non-positive flow weight {weight}")
        cached = self._route_cache.get((src, dst))
        if cached is None:
            route = tuple(self.topology.route(src, dst))
            cached = (route, tuple(l.name for l in route))
            self._route_cache[(src, dst)] = cached
        route, names = cached
        # Latency/loss are *live* reads (fault windows move them); computed
        # over the cached route with the same folds the topologies use.
        latency = 0.0
        keep = 1.0
        for link in route:
            latency += link.spec.latency
            keep *= 1.0 - link.loss_rate
        loss = 1.0 - keep
        done = Event(self.env)
        fid = self._next_fid
        self._next_fid += 1

        # A slice grain at or below the completion epsilon is unresolvable
        # — treat the flow as unsliced rather than spin on the boundary.
        slice_eff = None
        if slice_bytes is not None and float(slice_bytes) > _BYTE_EPS:
            slice_eff = float(slice_bytes) * (1.0 + loss)

        flow = Flow(
            fid=fid,
            src=src,
            dst=dst,
            size=float(size),
            remaining=float(size) * (1.0 + loss),
            route=route,
            latency=latency,
            done=done,
            tag=tag,
            start_time=self.env.now,
            names=names,
            prio=prio,
            weight=weight,
            slice_eff=slice_eff,
            job=job,
        )

        if not route or flow.remaining <= _BYTE_EPS:
            # Loopback or empty payload: only latency applies.
            self._finish(flow)
            return done

        self._drain()
        self._register(flow)
        for hook in self.flow_hooks:
            hook(flow)
        tr = self.env.tracer
        if tr:
            tr.gauge_delta("obs.net.inflight_bytes", flow.size)
            tr.gauge_delta("obs.net.active_flows", 1)
        self._schedule_rerate()
        return done

    def transfer_process(self, src, dst, size: float, tag: Any = None, **kwargs):
        """Generator wrapper so callers can ``yield from`` a transfer."""
        record = yield self.transfer(src, dst, size, tag=tag, **kwargs)
        return record

    def bulk_time(self, src, dst, size: float) -> float:
        """Analytic duration of a *lone* transfer (no contention).

        Useful for closed-form expectations in tests and for the paper's
        Eq. 5 upper-bound computation.
        """
        route = self.topology.route(src, dst)
        latency = self.topology.route_latency(src, dst)
        if not route or size <= 0:
            return latency
        loss = self.topology.route_loss(src, dst)
        bottleneck = min(l.bandwidth for l in route)
        return size * (1.0 + loss) / bottleneck + latency

    def link_utilization(self, name: str) -> float:
        """Average utilisation of link ``name`` since t=0."""
        link = self._links_by_name[name]
        return link.utilization(self.env.now)

    def job_bytes(self, job: str) -> float:
        """Effective bytes drained so far for flows tagged ``job=``."""
        return float(self.stats.get(_job_counter(job), 0.0))

    def refresh_capacities(self) -> None:
        """Re-read link bandwidths after a fault changed them.

        Drains active flows at their old rates up to *now*, rebuilds the
        capacity map from the links' effective bandwidths, and re-runs the
        fair-share allocation — so a bandwidth dip/flap immediately slows
        (or a clear immediately speeds up) in-flight transfers. Loss-rate
        changes, by contrast, only affect flows started after the change:
        retransmission inflation is sampled at flow start.
        """
        self._drain()
        self._capacities = {l.name: l.bandwidth for l in self.topology.links}
        self._solver_dirty = True  # cached allocations assume old capacities
        if self._sliced_count:
            # A fault transition applies immediately even to mid-slice
            # flows: force every slice to a boundary so the coming solve
            # re-rates them against the new capacities.
            for flow in self._active.values():
                if flow.slice_eff is not None:
                    flow.slice_next = -1.0
        self._rerate()

    # ------------------------------------------------------------ internals
    def _count(self, name: str, n: int = 1) -> None:
        # .get: per-job counters (netsim.job_bytes.{job}) appear dynamically.
        self.stats[name] = self.stats.get(name, 0) + n
        if self.recorder is not None:
            self.recorder.incr(name, n)

    def _register(self, flow: Flow) -> None:
        """Add a flow to the active set and the solver bookkeeping."""
        self._active[flow.fid] = flow
        self._pending_new.append(flow.fid)
        self._solver_routes[flow.fid] = flow.names
        self._solver_prios[flow.fid] = flow.prio
        self._solver_weights[flow.fid] = flow.weight
        # The decoupled-delta skip path stays valid across classes and
        # weights: a flow alone on its links has no competitors of any
        # class, so its priority-fair rate is exactly its route's min
        # capacity — no extra dirtying needed here.
        self._class_count[flow.prio] = self._class_count.get(flow.prio, 0) + 1
        if flow.weight != 1.0:
            self._weighted_count += 1
        if flow.slice_eff is not None:
            self._sliced_count += 1
        load = self._link_load
        for name in set(flow.names):
            n = load.get(name, 0)
            load[name] = n + 1
            if n > 0:
                self._solver_dirty = True  # couples with an existing flow

    def _retire(self, flow: Flow, tr) -> None:
        """Remove a finished flow from the active set and the solver bookkeeping."""
        del self._active[flow.fid]
        del self._solver_routes[flow.fid]
        del self._solver_prios[flow.fid]
        del self._solver_weights[flow.fid]
        n_cls = self._class_count[flow.prio] - 1
        if n_cls:
            self._class_count[flow.prio] = n_cls
        else:
            del self._class_count[flow.prio]
        if flow.weight != 1.0:
            self._weighted_count -= 1
        if flow.slice_eff is not None:
            self._sliced_count -= 1
        if tr:
            tr.gauge_delta("obs.net.inflight_bytes", -flow.size)
            tr.gauge_delta("obs.net.active_flows", -1)
        load = self._link_load
        for name in set(flow.names):
            n = load[name] - 1
            load[name] = n
            if n > 0:
                self._solver_dirty = True  # survivors on this link speed up
        self._finish(flow)

    def _drain(self) -> None:
        """Advance all active flows to the current instant."""
        now = self.env.now
        dt = now - self._last_update
        self._last_update = now
        if dt > 0 and self._active:
            cls_bytes = [0.0, 0.0, 0.0, 0.0]
            job_bytes: dict[str, float] = {}
            for flow in self._active.values():
                moved = flow.rate * dt
                if moved > 0:
                    # max(0.0, ·) and the horizon's min() as branches: the two
                    # builtin calls per flow were ~8% of a 128-way incast run.
                    rem = flow.remaining - moved
                    flow.remaining = rem if rem > 0.0 else 0.0
                    for link in flow.route:
                        link.bytes_carried += moved
                    cls_bytes[flow.prio] += moved
                    if flow.job is not None:
                        job_bytes[flow.job] = job_bytes.get(flow.job, 0.0) + moved
            if self.priorities:
                for cls, nbytes in enumerate(cls_bytes):
                    if nbytes > 0:
                        self._count(_BYTE_COUNTERS[cls], nbytes)
            for job, nbytes in job_bytes.items():
                self._count(_job_counter(job), nbytes)
        for hook in self.drain_hooks:
            hook()

    def _schedule_rerate(self) -> None:
        """Arm (at most) one coalesced rerate for the current instant."""
        if self._pending:
            return
        self._pending = True
        self.env.defer(self._on_deferred_rerate)

    def _on_deferred_rerate(self) -> None:
        if not self._pending:
            return  # an immediate rerate (timer/fault refresh) covered it
        self._drain()
        self._rerate()

    def _after_plain_solve(self) -> None:
        """Bookkeeping after a single-class full solve.

        Plain solves apply allocations instantly (slicing never defers a
        same-class fair-share adjustment), but each applied allocation
        *starts a fresh slice*: anchor it so a higher-class arrival
        mid-slice finds the flow locked at its running rate.
        """
        self._solver_dirty = False
        self._rated = True
        self._locked = []
        if self._sliced_count:
            for flow in self._active.values():
                if flow.slice_eff is not None:
                    flow.slice_next = max(0.0, flow.remaining - flow.slice_eff)

    def _prio_solve(self, fresh_anchor: set) -> None:
        """Strict-priority allocation over a multi-class active set.

        P3-style slicing first: a sliced flow that is mid-slice keeps its
        current rate (locked) until the boundary; its pinned consumption
        is subtracted from link capacities before the class loop, so even
        a higher-class arrival waits out at most one slice — the modelled
        preemption latency. Everything else goes through
        :func:`prio_fair_rates`: classes solved highest first over the
        leftover capacity, equal-class flows sharing by (weighted)
        max–min, lower classes starved outright on saturated links
        (``netsim.prio_preemptions`` counts flows whose running rate that
        drops to zero).
        """
        active = self._active
        locked: list[int] = []
        if self._sliced_count:
            for fid, flow in active.items():
                if flow.slice_eff is None:
                    continue
                if (
                    flow.slice_next >= 0.0
                    and flow.slice_eff > 0.0
                    and flow.remaining < flow.slice_next - _BYTE_EPS
                ):
                    # Boundaries passed without a rerate (the flow ran
                    # uncontended): advance the anchor along its slice grid
                    # to the boundary of the slice `remaining` now sits in.
                    behind = flow.slice_next - flow.remaining
                    steps = math.ceil(behind / flow.slice_eff - 1e-9)
                    flow.slice_next = max(
                        0.0, flow.slice_next - steps * flow.slice_eff
                    )
                if (
                    flow.rate > 0.0
                    and flow.slice_next >= 0.0
                    and flow.remaining > flow.slice_next + _BYTE_EPS
                    and fid not in fresh_anchor
                ):
                    locked.append(fid)
                else:
                    flow.slice_next = max(0.0, flow.remaining - flow.slice_eff)
                    fresh_anchor.add(fid)
        self._locked = locked

        starved_by_lock: list[int] = []
        if locked:
            caps = dict(self._capacities)
            lockset = set(locked)
            for fid in locked:
                flow = active[fid]
                for name in set(flow.names):
                    caps[name] = max(0.0, caps[name] - flow.rate)
            # A flow crossing a link the locked slices fully consume is
            # starved for the rest of the slice, whatever its class; the
            # remaining links must reach the solver strictly positive.
            routes: dict[int, tuple] = {}
            full = self._capacities
            for fid, names in self._solver_routes.items():
                if fid in lockset:
                    continue
                if any(caps[n] <= full[n] * _SAT_REL for n in set(names)):
                    starved_by_lock.append(fid)
                else:
                    routes[fid] = names
        else:
            caps = self._capacities
            routes = self._solver_routes

        weights = self._solver_weights if self._weighted_count else None
        rates = prio_fair_rates(
            routes, caps, self._solver_prios, weights, validate=False
        )
        self._count("netsim.fairshare_calls")
        preempted = 0
        for fid in starved_by_lock:
            rates[fid] = 0.0
        for fid, rate in rates.items():
            flow = active[fid]
            if rate == 0.0 and flow.rate > 0.0:
                preempted += 1
            flow.rate = rate
        if preempted:
            self._count("netsim.prio_preemptions", preempted)
        self._solver_dirty = False
        self._rated = True

    def _rerate(self) -> None:
        """Recompute fair rates, complete drained flows, arm the next timer."""
        now = self.env.now
        self._pending = False
        self._count("netsim.rerates")
        tr = self.env.tracer
        #: fids whose slice was (re-)anchored during *this* rerate — they
        #: must not be considered mid-slice by a later loop iteration.
        fresh_anchor: set[int] = set()
        while True:
            # Complete flows that have fully drained.
            finished = [
                f for f in self._active.values() if f.remaining <= _BYTE_EPS
            ]
            for flow in finished:
                self._retire(flow, tr)

            self._timer_version += 1
            if not self._active:
                self._pending_new.clear()
                return

            if self._rated and not self._solver_dirty:
                # Every change since the last solve is decoupled: survivors
                # keep their rates; each new flow is alone on its links, so
                # its fair share is exactly its route's min capacity —
                # regardless of class (no competitors to preempt or defer
                # to) — so this path stays valid under priorities.
                for fid in self._pending_new:
                    flow = self._active.get(fid)
                    if flow is not None:
                        flow.rate = min(
                            self._capacities[n] for n in set(flow.names)
                        )
                        if flow.slice_eff is not None:
                            flow.slice_next = max(
                                0.0, flow.remaining - flow.slice_eff
                            )
                self._count("netsim.rerate_skipped")
            elif len(self._class_count) > 1:
                self._prio_solve(fresh_anchor)
            else:
                rates = fair_rates(
                    self._solver_routes, self._capacities, validate=False
                )
                self._count("netsim.fairshare_calls")
                for fid, flow in self._active.items():
                    flow.rate = rates[fid]
                self._after_plain_solve()
            self._pending_new.clear()

            horizon = float("inf")
            for flow in self._active.values():
                rate = flow.rate
                if rate > 0:
                    eta = flow.remaining / rate
                    if eta < horizon:
                        horizon = eta
            if self._locked:
                # A mid-slice flow's pinned rate expires at its slice
                # boundary — wake there so deferred allocations apply.
                for fid in self._locked:
                    flow = self._active.get(fid)
                    if flow is not None and flow.rate > 0 and flow.slice_eff:
                        horizon = min(
                            horizon,
                            (flow.remaining - flow.slice_next) / flow.rate,
                        )
            if horizon == float("inf"):  # pragma: no cover - defensive
                raise RuntimeError("active flows but no positive rate")

            if now + horizon > now:
                break
            # Float-precision guard: the nearest completion is too close to
            # advance the clock (remaining bytes are sub-epsilon relative to
            # the current timestamp). Without this, the timer would re-arm
            # at the same instant forever. Zero those flows and loop.
            for flow in self._active.values():
                if flow.rate > 0 and now + flow.remaining / flow.rate <= now:
                    flow.remaining = 0.0
            for fid in self._locked:
                # Same guard for slice boundaries: a grain too fine to
                # advance the clock degrades the flow to unsliced.
                flow = self._active.get(fid)
                if (
                    flow is not None
                    and flow.slice_eff is not None
                    and flow.rate > 0
                    and now + (flow.remaining - flow.slice_next) / flow.rate
                    <= now
                ):
                    flow.slice_eff = None
                    self._sliced_count -= 1
                    self._solver_dirty = True  # re-solve without the lock

        version = self._timer_version
        timer = self.env.timeout(horizon)
        timer.callbacks.append(lambda _ev, v=version: self._on_timer(v))

    def _on_timer(self, version: int) -> None:
        if version != self._timer_version:
            return  # superseded by a more recent flow start/finish
        self._drain()
        self._rerate()

    def _finish(self, flow: Flow) -> None:
        """Deliver the completion event after the route's one-way latency."""
        record = FlowRecord(
            fid=flow.fid,
            src=flow.src,
            dst=flow.dst,
            size=flow.size,
            tag=flow.tag,
            start_time=flow.start_time,
            end_time=self.env.now + flow.latency,
        )
        if self.keep_records:
            if (
                self.max_records is not None
                and len(self.records) >= self.max_records
            ):
                self._count("netsim.records_dropped")
            self.records.append(record)
        if flow.latency > 0:
            timer = self.env.timeout(flow.latency)
            timer.callbacks.append(
                lambda _ev: flow.done.succeed(record, priority=URGENT)
            )
        else:
            flow.done.succeed(record, priority=URGENT)


__all__ = ["Network"]
