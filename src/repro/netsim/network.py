"""The Network facade: event-driven fluid-flow transfer scheduling.

Whenever a flow starts or finishes, the scheduler (1) *drains* all active
flows by their current rates over the elapsed interval, (2) recomputes
max–min fair rates, and (3) schedules a wake-up at the earliest projected
completion. Wake-ups are versioned so a superseded timer is ignored rather
than cancelled (the kernel has no cancellation primitive — versioning is
cheaper and deterministic).

The :class:`~repro.netsim.flows.Flow` objects are the only record of
``remaining``/``rate``, and a rerate touches each active flow as few times as
it can: the drain is one scalar loop over them that also notes each flow
crossing the completion threshold (so retiring needs no scan), and the
solve's write-back takes the completion horizon as it assigns rates — a
second pass over the active flows runs only when the solved component is not
all of them.

Scaling machinery (the solver it calls has its own: a round whose bottleneck
carries every unfrozen flow ends the solve — see :mod:`.fairshare`):

* **Coalesced rerates** — flow starts batch same-instant work into a single
  fair-share recompute via :meth:`Environment.defer` instead of re-solving
  once per ``transfer()``. Virtual-time outcomes are unchanged: no bytes
  move within an instant, intermediate allocations are unobservable, and
  the coalesced solve sees exactly the flow set the last per-event solve
  would have seen.
* **Touched-component rerate** — rates couple only through shared links, so
  a rerate walks from the links where a flow joined or left other flows
  (link → its flows → their links) and solves only the flows it reaches:
  ``fair_rates`` when they hold one class, the priority path when several.
  Everything outside keeps the rate the same operands produced last time, so
  the result is the whole-set solve's bit for bit (the solver's sub-``_EPS``
  near-tie hysteresis cannot bite across components: above ~10⁴ B/s
  ``2·_EPS`` is below one ulp of a share). OSP's HIGH pushes into the PS and
  BULK pulls out of it share no link on a full-duplex star, so neither pays
  for the other's departures. The whole fabric is just the component of
  *every* loaded link: a capacity refresh marks them all. A walk that
  reaches nothing solves nothing (``netsim.rerate_skipped``); a new flow it
  did not reach is alone on its links and gets its route's min capacity.
* **Live link loads** — the flow–link index holds only loaded links, each
  with its flows in fid order, so a link's ``len()`` is its live load. The
  walk hands the solver the component's links with their members (the index
  itself when the component is the whole fabric), and ``fair_rates`` reads
  round 1's loads from them instead of recounting every route.
* **Route caching** — interned ``(route, link names, distinct link names)``
  per (src, dst), so the solver never rebuilds name lists and topologies are
  only asked to route each pair once. Topologies are static by contract
  (fault windows change link *attributes*, never the link set or routes).

No flow carries scheduler state from one solve to the next, so after every
rerate each live rate *is* the strict-priority max–min solve
(:func:`prio_fair_rates`) of the current flow set over the current
capacities — a property ``tests/netsim/test_network_properties.py`` checks
at every drain.

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
from typing import Any, Optional

from repro.netsim.fairshare import fair_rates, prio_fair_rates
from repro.netsim.flows import Flow, FlowRecord
from repro.netsim.links import Link
from repro.netsim.prio import CLASS_NAMES, PRIO_NORMAL
from repro.netsim.topology import StarTopology
from repro.simcore.environment import Environment
from repro.simcore.events import Event
from repro.simcore.priority import URGENT

#: Flows with fewer remaining effective bytes than this are complete.
_BYTE_EPS = 1e-6

#: Completion horizon before any flow with a positive rate has been seen.
_INF = float("inf")

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


def _contended_counter(job: str) -> str:
    """The share of ``netsim.job_bytes.{job}`` drained while another job
    had flows in flight (registered template ``netsim.job_contended_bytes.{job}``)."""
    return f"netsim.job_contended_bytes.{job}"


class Network:
    """Transfer scheduler over a topology.

    Parameters
    ----------
    env:
        Simulation environment (clock source and event queue).
    topology:
        Any object exposing ``route``, ``route_loss`` and ``links``
        (see :class:`~repro.netsim.topology.StarTopology`).

    :attr:`priorities` says whether the fabric schedules by priority class
    (it does until set False). It is read when a flow is admitted: while
    False, every flow enters as NORMAL and the links are plainly
    fair-shared. Set it before the run starts.

    Every completed transfer is appended to :attr:`records` for post-hoc
    analysis (BST breakdowns, Fig. 1/2 timelines).
    """

    def __init__(
        self,
        env: Environment,
        topology: StarTopology,
    ) -> None:
        self.env = env
        self.topology = topology
        self.priorities = True
        self.records: list[FlowRecord] = []
        #: frozenset of the jobs with flows in flight -> virtual seconds the
        #: fabric spent in that state (job-tagged flows only; see _drain).
        self.job_overlap: dict[frozenset, float] = {}
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
        #: (src, dst) -> (route, its link names, the distinct ones among them).
        self._route_cache: dict[tuple, tuple[tuple[Link, ...], tuple, tuple]] = {}
        #: The flow–link index, all the scheduler keeps about coupling: loaded
        #: link name -> fids of the active flows crossing it, in fid order. A
        #: link enters with its first flow and leaves with its last, so
        #: ``len(members)`` is its live load (what ``fair_rates`` reads).
        self._link_flows: dict[str, dict[int, None]] = {}
        #: Active flows whose ``remaining`` the drain took to ``_BYTE_EPS`` or
        #: below (or the float guard zeroed), in fid order: what the next
        #: rerate retires.
        self._finished: list[Flow] = []
        #: Links where a flow joined or left *other* flows since the last
        #: solve: where the next rerate starts its walk.
        self._touched: list[str] = []
        #: True while a coalesced rerate is armed for the current instant.
        self._pending = False
        #: fids added since the last rate assignment.
        self._pending_new: list[int] = []
        #: Persistent fid -> route-name-tuple map for the solver. fids are
        #: handed out in increasing order and never reused, so dict
        #: insertion order *is* sorted-fid order.
        self._solver_routes: dict[int, tuple[str, ...]] = {}
        #: Parallel fid -> class map for the priority solver.
        self._solver_prios: dict[int, int] = {}

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
        job: Optional[str] = None,
    ) -> Event:
        """Start a transfer of ``size`` payload bytes from ``src`` to ``dst``.

        Returns an event that succeeds with a :class:`FlowRecord` when the
        last byte arrives (serialisation under fair sharing + route latency).
        Loopback (``src == dst``) completes after zero time at the same
        instant, modelling co-located PS communication through shared memory.

        ``prio`` picks the strict-priority class (repro.netsim.prio
        constants); it is coerced to NORMAL while :attr:`priorities` is
        False.

        ``job`` attributes the flow to a training job: its drained bytes
        are accounted to ``netsim.job_bytes.{job}`` and its time on the
        wire to :attr:`job_overlap`. Untagged transfers (a trainer that
        owns its network) skip the job accounting path entirely.
        """
        if not math.isfinite(size):
            raise ValueError(f"non-finite transfer size {size}")
        if size < 0:
            raise ValueError(f"negative transfer size {size}")
        if prio not in CLASS_NAMES:
            raise ValueError(f"unknown priority class {prio!r}")
        if not self.priorities:
            prio = PRIO_NORMAL
        cached = self._route_cache.get((src, dst))
        if cached is None:
            route = tuple(self.topology.route(src, dst))
            names = tuple(l.name for l in route)
            cached = (route, names, tuple(dict.fromkeys(names)))
            self._route_cache[(src, dst)] = cached
        route, names, links = cached
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
        # Positional, in field order: fid, src, dst, size, remaining, route,
        # latency, done, tag, start_time, rate, names, links, prio, job.
        flow = Flow(
            fid, src, dst, float(size), float(size) * (1.0 + loss), route,
            latency, done, tag, self.env.now, 0.0, names, links, prio, job,
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

    def job_bytes(self, job: str) -> float:
        """Effective bytes drained so far for flows tagged ``job=``."""
        return float(self.stats.get(_job_counter(job), 0.0))

    def contended_bytes(self, job: str) -> float:
        """Those of :meth:`job_bytes` drained while another job had flows
        in flight."""
        return float(self.stats.get(_contended_counter(job), 0.0))

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
        self._touch_all()  # every allocation assumed the old capacities
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
        self._class_count[flow.prio] = self._class_count.get(flow.prio, 0) + 1
        index = self._link_flows
        for name in flow.links:
            members = index.get(name)
            if members is None:
                index[name] = {flow.fid: None}
            else:
                self._touched.append(name)  # couples with an existing flow
                members[flow.fid] = None

    def _retire(self, flow: Flow, tr) -> None:
        """Remove a finished flow from the active set and the solver bookkeeping."""
        del self._active[flow.fid]
        del self._solver_routes[flow.fid]
        del self._solver_prios[flow.fid]
        n_cls = self._class_count[flow.prio] - 1
        if n_cls:
            self._class_count[flow.prio] = n_cls
        else:
            del self._class_count[flow.prio]
        if tr:
            tr.gauge_delta("obs.net.inflight_bytes", -flow.size)
            tr.gauge_delta("obs.net.active_flows", -1)
        index = self._link_flows
        for name in flow.links:
            members = index[name]
            del members[flow.fid]
            if members:
                self._touched.append(name)  # survivors on this link speed up
            else:
                del index[name]
        self._finish(flow)

    def _drain(self) -> None:
        """Advance all active flows to the current instant.

        The active set is constant over the drained interval, so it is also
        where per-job attribution is exact: the interval's ``dt`` goes to
        :attr:`job_overlap` under the set of jobs in flight, and when that
        set has more than one job each job's moved bytes also count as
        contended (``netsim.job_contended_bytes.{job}``).

        It is also where a flow finishes: one whose ``remaining`` crosses
        ``_BYTE_EPS`` here joins :attr:`_finished` (in fid order, as the
        active set iterates), so the rerate retires without a scan.
        """
        now = self.env.now
        dt = now - self._last_update
        self._last_update = now
        if dt > 0 and self._active:
            cls_bytes = [0.0, 0.0, 0.0, 0.0]
            job_bytes: dict[str, float] = {}
            finished = self._finished
            eps = _BYTE_EPS
            for flow in self._active.values():
                moved = flow.rate * dt
                if moved > 0:
                    # max(0.0, ·) and the horizon's min() as branches: the two
                    # builtin calls per flow were ~8% of a 128-way incast run.
                    rem = flow.remaining - moved
                    if rem <= eps < flow.remaining:
                        finished.append(flow)
                    flow.remaining = rem if rem > 0.0 else 0.0
                    for link in flow.route:
                        link.bytes_carried += moved
                    cls_bytes[flow.prio] += moved
                    if flow.job is not None:
                        job_bytes[flow.job] = job_bytes.get(flow.job, 0.0) + moved
                elif flow.job is not None:  # preempted, still in flight
                    job_bytes.setdefault(flow.job, 0.0)
            if self.priorities:
                for cls, nbytes in enumerate(cls_bytes):
                    if nbytes > 0:
                        self._count(_BYTE_COUNTERS[cls], nbytes)
            if job_bytes:
                jobs = frozenset(job_bytes)
                self.job_overlap[jobs] = self.job_overlap.get(jobs, 0.0) + dt
                contended = len(jobs) > 1
                for job, nbytes in job_bytes.items():
                    if nbytes > 0:
                        self._count(_job_counter(job), nbytes)
                        if contended:
                            self._count(_contended_counter(job), nbytes)
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

    def _touch_all(self) -> None:
        """Mark every loaded link: the next rerate solves the whole fabric."""
        self._touched = list(self._link_flows)

    def _reach(self) -> tuple[dict[int, tuple[str, ...]], dict[str, dict]]:
        """Routes, in fid order, of the flows the touched links (consumed
        here) can reach, and those flows' links with their members. A link
        carrying every active flow ends the walk: an incast is recognised in
        O(1) and solved over the live route map and the live index. A
        touched link that has emptied since is skipped.
        """
        routes = self._solver_routes
        touched = self._touched
        index = self._link_flows
        reached: set[int] = set()
        seen: dict[str, dict[int, None]] = {}
        while touched:
            name = touched.pop()
            if name in seen:
                continue
            members = index.get(name)
            if members is None:
                continue
            if len(members) == len(routes):
                touched.clear()
                return routes, index
            seen[name] = members
            for fid in members:
                if fid not in reached:
                    reached.add(fid)
                    touched.extend(routes[fid])
        if len(reached) == len(routes):
            return routes, index
        return {fid: routes[fid] for fid in sorted(reached)}, seen

    def _solve(self, routes, links) -> float:
        """Rate the flows of ``routes`` (whole link-components, fid order)
        over ``links``, their links with members; return the nearest
        completion among them (``_INF`` when none has a positive rate).

        One class is plain max–min. Several go to :func:`prio_fair_rates`:
        classes solved highest first over the leftover capacity, equal-class
        flows sharing by max–min, lower classes starved outright on
        saturated links (``netsim.prio_preemptions`` counts flows whose
        running rate drops to zero).
        """
        active = self._active
        prios = self._solver_prios
        caps = self._capacities
        several = (  # the fabric-wide count first: it is O(1)
            len(self._class_count) > 1 and len({prios[f] for f in routes}) > 1
        )
        if several:
            rates = prio_fair_rates(routes, caps, prios, validate=False)
        else:
            rates = fair_rates(routes, caps, validate=False, link_flows=links)
        self._count("netsim.fairshare_calls")
        if several:  # a single class is never starved
            preempted = sum(
                rate == 0.0 and active[fid].rate > 0.0
                for fid, rate in rates.items()
            )
            if preempted:
                self._count("netsim.prio_preemptions", preempted)
        horizon = _INF
        for fid, rate in rates.items():
            flow = active[fid]
            flow.rate = rate
            if rate > 0:
                eta = flow.remaining / rate
                if eta < horizon:
                    horizon = eta
        return horizon

    def _rerate(self) -> None:
        """Recompute fair rates, complete drained flows, arm the next timer."""
        now = self.env.now
        self._pending = False
        self._count("netsim.rerates")
        tr = self.env.tracer
        while True:
            # Complete the flows the drain (or the guard below) finished.
            finished = self._finished
            self._finished = []
            for flow in finished:
                self._retire(flow, tr)

            self._timer_version += 1
            if not self._active:
                self._pending_new.clear()
                self._touched.clear()
                return

            routes, links = self._reach()
            if routes:
                horizon = self._solve(routes, links)
            else:
                self._count("netsim.rerate_skipped")
            for fid in self._pending_new:
                if fid not in routes:
                    # No touched link reached it: the flow is alone on its
                    # links, so its share is its route's min capacity —
                    # whatever its class (nobody to preempt or defer to).
                    flow = self._active[fid]
                    flow.rate = min(self._capacities[n] for n in flow.links)
            self._pending_new.clear()

            if len(routes) < len(self._active):
                # Flows outside the solved component count too.
                horizon = _INF
                for flow in self._active.values():
                    rate = flow.rate
                    if rate > 0:
                        eta = flow.remaining / rate
                        if eta < horizon:
                            horizon = eta
            if horizon == _INF:  # pragma: no cover - defensive
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
                    self._finished.append(flow)

        version = self._timer_version
        timer = self.env.timeout(horizon)
        timer.callbacks.append(lambda _ev, v=version: self._on_timer(v))

    def _on_timer(self, version: int) -> None:
        if version != self._timer_version:
            return  # superseded by a more recent flow start/finish
        self._drain()
        self._rerate()

    def _finish(self, flow: Flow) -> None:
        """Deliver the completion event after the route's one-way latency.

        With latency, ``done`` is queued NORMAL at ``now + latency`` and
        stays untriggered until its entry pops; without, it succeeds URGENT
        at this instant.
        """
        record = FlowRecord(
            flow.fid, flow.src, flow.dst, flow.size, flow.tag,
            flow.start_time, self.env.now + flow.latency, flow.job,
        )
        self.records.append(record)
        if flow.latency > 0:
            self.env.deliver(flow.done, record, flow.latency)
        else:
            flow.done.succeed(record, priority=URGENT)


__all__ = ["Network"]
