"""The Network facade: event-driven fluid-flow transfer scheduling.

A flow's progress is an anchor, not a running count: it had ``rem_anchor``
effective bytes left at ``t_anchor`` and has moved at ``rate`` since, so its
last byte leaves at ``t_end = t_anchor + rem_anchor / rate``. Whenever a
flow starts or finishes, the scheduler (1) finds the flows whose remaining
bytes have come down to ``_BYTE_EPS``, (2) recomputes the max–min fair rates
of what the change can reach, anchoring each flow whose rate changed at this
instant, and (3) arms one wake-up at the nearest ``t_end``. Nothing moves
between events, so there is nothing to drain: finding the finished flows and
the nearest end is a scan of the active flows' anchors, except over a full
incast's flows, which form a cohort.

* **When a flow re-anchors.** Only when the rate it ends an instant with
  differs from the rate it started the instant with: a solve that changes a
  rate saves the instant's starting anchor (``Flow.back``), and one that
  gives the starting rate back restores it. So the anchors — and every
  float derived from them — are the same however many solves run within an
  instant, which keeps this scheduler ``==`` to one that re-solves at every
  flow event (``tests/netsim/reference.py::PerEventNetwork``).
* **A full incast costs O(log n) per departure.** A whole-fabric solve of
  at least ``_COHORT_MIN`` flows that gives every flow one share, each
  anchored at this instant, makes them one ``_Cohort`` on the link they all
  cross. Re-anchoring its members at a new share would subtract the same
  ``old_rate·(now − t)`` from each, so the cohort records that step once,
  and a member replays the steps it has not seen only when something reads
  it — bit for bit the per-flow arithmetic. A heap of ``remaining + steps so
  far`` keys, pushed once per member, points at the nearest ends and the
  finished members. While there is a cohort the network also keeps its
  loaded links in a heap by share, so a whole-fabric solve that still gives
  every flow one share is known from the heap's top and steps the cohort
  without calling the solver or visiting a member. Any other solve that
  reaches exactly the cohort's flows and gives them one share steps it as
  well; one that cannot hands the members back to per-flow anchors first.
  Flows that start elsewhere beside a cohort are scanned.
* **Ledgers.** A flow credits its exact effective bytes to every link of
  its route (``Link.bytes_carried``), to ``netsim.prio_bytes.{class}`` and,
  when job-tagged, to ``netsim.job_bytes.{job}`` when it finishes. The
  contended share (``netsim.job_contended_bytes.{job}``) and
  :attr:`Network.job_overlap` are closed whenever the set of jobs in flight
  changes. :meth:`Network.ledger` is the one read path that adds the
  in-flight flows' progress, for whoever reads mid-run (probes, checkpoints).
* **One armed wake-up.** The network owns a single kernel timer and cancels
  it when it re-arms (``Environment.cancel``): a superseded wake-up never
  runs, never moves the clock and never reaches the sampler, so the clock
  after the queue empties depends only on the work.

Scaling machinery (the solver it calls has its own: a round whose bottleneck
carries every unfrozen flow ends the solve — see :mod:`.fairshare`):

* **Coalesced rerates** — flow starts batch same-instant work into a single
  fair-share recompute via :meth:`Environment.defer` instead of re-solving
  once per ``transfer()``. Virtual-time outcomes are unchanged: no bytes
  move within an instant, intermediate allocations are unobservable (the
  anchor rule above), and the coalesced solve sees exactly the flow set the
  last per-event solve would have seen.
* **Touched-component rerate** — rates couple only through shared links, so
  a rerate walks from the links where a flow joined or left other flows
  (link → its flows → their links) and solves only the flows it reaches:
  plain max–min when they hold one class, the priority path when several.
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
  itself when the component is the whole fabric), and the solve reads
  round 1's loads from them instead of recounting every route.
* **Route caching** — interned ``(route, distinct link names, latency,
  loss)`` per (src, dst), so the solver never rebuilds name lists,
  topologies are only asked to route each pair once and a flow pays no fold
  over its links. Topologies are static by contract (fault windows change
  link *attributes*, never the link set or routes); the loss is folded
  from the links' fault state, so a link empties the cache (``Link.caches``)
  whenever its fault state changes, with or without a capacity refresh.

No flow carries scheduler state from one solve to the next beyond its
progress, so after every rerate each live rate *is* the strict-priority
max–min solve (:func:`prio_fair_rates`) of the current flow set over the
current capacities — a property ``tests/netsim/test_network_properties.py``
checks at every drain.

``flow_hooks`` and ``drain_hooks`` are the two moments an observer can
subscribe to (:mod:`repro.check` does): a flow going on the wire, and every
network event (a start, a wake-up, a deferred rerate, a capacity refresh)
once the flows that reached their end have been found. ``stats`` tracks the
``netsim.*`` counters registered in :mod:`repro.obs.registry`; when a
:class:`~repro.metrics.recorder.Recorder` is attached (the trainer does)
the network holds its ``counters`` dict and bumps it in place beside
``stats`` at every count — no call per bump, and each key arrives in the
recorder at its first bump, for summaries and checkpoints. Replay streams
exclude the ``netsim.`` namespace: it counts how *often* the scheduler
recomputes, not what it computes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from operator import attrgetter
from typing import Any, Optional

from repro.netsim.fairshare import _EPS, _max_min, _prio_max_min
from repro.netsim.flows import Flow, FlowRecord, RecordBuilder
from repro.netsim.prio import CLASS_NAMES, PRIO_NORMAL
from repro.netsim.topology import StarTopology
from repro.simcore.environment import Environment
from repro.simcore.events import Event
from repro.simcore.priority import URGENT

#: Flows with fewer remaining effective bytes than this are complete.
_BYTE_EPS = 1e-6

#: Completion horizon before any flow with a positive rate has been seen.
_INF = float("inf")

#: Relative margin of the cohort's candidate tests: far wider than the few
#: ulps by which a float end, a wake-up time or a remaining-bytes check can
#: round.
_NEAR = 1e-12

_T_END = attrgetter("t_end")
_FID = attrgetter("fid")

#: A cohort with this many steps hands its members back (their keys'
#: rounding must stay inside the cohort's slack).
_MAX_STEPS = 50_000

#: The fewest flows a cohort forms from. Below it, scanning the anchors
#: costs less than keeping the cohort's heaps (a 2-link route pays two share
#: pushes per start and per finish), and no benchmark workload's full
#: incast reaches it but ``t128_osp``'s.
_COHORT_MIN = 32

#: Per-class byte counter names, indexed by class value.
_BYTE_COUNTERS = tuple(
    f"netsim.prio_bytes.{CLASS_NAMES[cls]}" for cls in range(4)
)


def _job_counter(job: str) -> str:
    """Byte counter name for a job-tagged flow.

    Matches the ``netsim.job_bytes.{job}`` template registered in
    :mod:`repro.obs.registry`.
    """
    return f"netsim.job_bytes.{job}"


def _contended_counter(job: str) -> str:
    """The share of ``netsim.job_bytes.{job}`` moved while another job
    had flows in flight (registered template ``netsim.job_contended_bytes.{job}``)."""
    return f"netsim.job_contended_bytes.{job}"


@dataclass(frozen=True)
class Ledger:
    """The fabric's byte ledgers at one instant, in-flight progress included
    (what :meth:`Network.ledger` returns)."""

    #: link name -> effective bytes the link has carried.
    links: dict[str, float]
    #: ``netsim.prio_bytes.*``, ``netsim.job_bytes.*`` and
    #: ``netsim.job_contended_bytes.*`` -> effective bytes.
    counters: dict[str, float]
    #: fid of each active flow -> effective bytes it has still to move.
    remaining: dict[int, float]


class _Cohort:
    """The flows on one link, all at one rate from one anchor time: what a
    whole-fabric solve leaves when it gives every flow the same share (a
    full incast, whose every departure and arrival re-rates everyone).

    Re-anchoring a member at a new rate subtracts ``old_rate·(now − t)``
    from its remaining bytes — the same ``step`` for every member. The
    cohort records the steps instead (with the anchor time and rate before
    each), and a member replays the ones it has not seen only when something
    reads it (:meth:`sync`), leaving bit for bit the anchor, end and
    ``back`` re-anchoring it at every step would have. A common subtraction
    never reorders remaining bytes, so a heap of ``rem + cum`` keys (``cum``
    the steps' running sum), pushed once per member, finds the nearest ends
    and the finished flows; the keys are approximate, so the members in a
    slack band around them are replayed and tested exactly.
    """

    __slots__ = (
        "link", "formed", "t", "rate", "steps", "times", "rates", "cum", "heap", "size",
    )

    def __init__(self, link: str, t: float, rate: float) -> None:
        self.link = link
        self.formed = t
        self.t = t
        self.rate = rate
        self.steps: list[float] = []
        self.times: list[float] = []
        self.rates: list[float] = []
        self.cum = [0.0]
        self.heap: list = []
        self.size = 0

    def sync(self, flow: Flow) -> None:
        """Bring a member's anchor up to the cohort's last step."""
        steps = self.steps
        base = flow.base
        if base == len(steps):
            if flow.rate != self.rate:  # re-rated within its anchor's instant
                flow.rate = self.rate
                flow.t_end = self.t + flow.rem_anchor / self.rate
            return
        rem = flow.rem_anchor
        for step in steps[base:-1]:
            rem -= step
        prev = rem
        rem -= steps[-1]
        flow.back = (self.times[-1], prev, self.rates[-1])
        flow.rem_anchor = rem
        flow.t_anchor = self.t
        flow.rate = self.rate
        flow.t_end = self.t + rem / self.rate
        flow.base = len(steps)

    def near(self, bound: float) -> list[Flow]:
        """The members whose key is at most ``bound`` plus a slack, synced,
        in no particular order (``_candidates`` sorts them by fid,
        ``_horizon`` takes their least end): a superset of the members whose
        remaining bytes at the last step are at most ``bound − cum``. (A key
        and the running sum each lose at most an ulp per step: far inside
        the slack while a cohort lives, see ``_MAX_STEPS``.)

        Stale entries are popped off the top; the rest of the heap is walked
        in place from the root. Keys are ``rem + cum ≥ 0``, so the bound's
        test rises with the key and a node that fails it prunes its subtree.
        """
        heap = self.heap
        while heap and heap[0][2].cohort is not self:
            heappop(heap)  # finished, or the cohort it was in is gone
        limit = bound + _BYTE_EPS
        cum = self.cum[-1]
        n_steps = len(self.steps)
        rate = self.rate
        n = len(heap)
        flows = []
        stack = [0] if heap else []
        while stack:
            i = stack.pop()
            key, _fid, flow = heap[i]
            if key > limit + (abs(key) + cum) * 1e-10:
                continue
            if flow.cohort is self:
                if flow.base != n_steps or flow.rate != rate:
                    self.sync(flow)
                flows.append(flow)
            child = 2 * i + 1
            if child < n:
                stack.append(child)
                if child + 1 < n:
                    stack.append(child + 1)
        return flows


class Network:
    """Transfer scheduler over a topology.

    Parameters
    ----------
    env:
        Simulation environment (clock source and event queue).
    topology:
        Any object exposing ``route`` and ``links``
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
        #: fabric spent in that state (job-tagged flows only).
        self.job_overlap: dict[frozenset, float] = {}
        #: The attached recorder (:attr:`recorder`) and its ``counters``
        #: dict, which each bump of :attr:`stats` also bumps in place.
        self._recorder = None
        self._mirror: Optional[dict] = None
        #: Subscribers (``repro.obs.registry.HOOKS``): ``flow_hooks`` get each
        #: :class:`Flow` as it goes on the wire, ``drain_hooks`` no arguments.
        self.flow_hooks: list = []
        self.drain_hooks: list = []
        #: Scheduler work counters (see repro.obs.registry COUNTERS) and the
        #: byte ledgers of the flows that finished.
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
        #: The active flows' payload bytes, summed as they start and finish.
        self.inflight_payload = 0.0
        self._next_fid = 0
        self._last_update = env.now
        #: The one armed wake-up (a Timeout), cancelled when it is re-armed.
        self._timer = None
        self._capacities = {l.name: l.bandwidth for l in topology.links}
        self._links_by_name = {l.name: l for l in topology.links}

        #: Active-flow count per priority class (multi-class detector).
        self._class_count: dict[int, int] = {}
        #: Active job-tagged flows per job: its keys are the jobs in flight.
        self._job_count: dict[str, int] = {}
        #: When the current set of jobs in flight began.
        self._jobs_since = env.now
        #: (src, dst) -> (route, its distinct link names, its latency, its loss).
        #: The loss folds the links' fault state, so a link empties it on a change.
        self._route_cache: dict[tuple, tuple] = {}
        for link in topology.links:
            link.caches.append(self._route_cache)
        #: The flow–link index, all the scheduler keeps about coupling: loaded
        #: link name -> fids of the active flows crossing it, in fid order. A
        #: link enters with its first flow and leaves with its last, so
        #: ``len(members)`` is its live load (what the solver reads).
        self._link_flows: dict[str, dict[int, None]] = {}
        #: Active flows that reached their end (remaining at most
        #: ``_BYTE_EPS``, or too little to move the clock), in fid order:
        #: what the next rerate retires.
        self._finished: list[Flow] = []
        #: Links where a flow joined or left *other* flows since the last
        #: solve: where the next rerate starts its walk.
        self._touched: list[str] = []
        #: True while a coalesced rerate is armed for the current instant.
        self._pending = False
        #: fids added since the last rate assignment.
        self._pending_new: list[int] = []
        #: Persistent fid -> distinct-link-name map (``Flow.links``) for the
        #: solver. fids are handed out in increasing order and never reused,
        #: so dict insertion order *is* sorted-fid order.
        self._solver_routes: dict[int, tuple[str, ...]] = {}
        #: Parallel fid -> class map for the priority solver.
        self._solver_prios: dict[int, int] = {}
        #: The incast's flows as one :class:`_Cohort`, while they are one;
        #: then ``_loose`` holds the active flows outside it, by fid.
        self._cohort: Optional[_Cohort] = None
        self._loose: dict[int, Flow] = {}
        #: Kept only while there is a cohort (round 1 of a whole-fabric
        #: solve without a pass over the links): each loaded link's share
        #: (capacity / load) in a min-heap of ``(share, arrival, name)``,
        #: ``arrival`` counting links into the index (the solver's order
        #: among equal shares). An entry is current while its link keeps
        #: that arrival and that share; stale ones are dropped when they
        #: surface, or all at once when they outnumber the loaded links.
        self._shares: list = []
        self._arrival: dict[str, int] = {}
        self._arrivals = 0

    # ------------------------------------------------------------------ API
    @property
    def active_flows(self) -> list[Flow]:
        """Snapshot of in-flight flows by flow id (insertion order: fids only grow)."""
        flows = list(self._active.values())
        cohort = self._cohort
        if cohort is not None:
            for flow in flows:
                if flow.cohort is cohort:
                    cohort.sync(flow)
        return flows

    @property
    def recorder(self):
        """The :class:`~repro.metrics.recorder.Recorder` the ``netsim.*``
        counters are mirrored into, or None (the trainer attaches its own).
        Every bump of :attr:`stats` bumps the recorder's ``counters`` dict in
        place too, so its keys arrive in first-bump order among the
        recorder's other counters."""
        return self._recorder

    @recorder.setter
    def recorder(self, recorder) -> None:
        self._recorder = recorder
        self._mirror = None if recorder is None else recorder.counters

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

        ``job`` attributes the flow to a training job: its bytes are
        accounted to ``netsim.job_bytes.{job}`` and its time on the wire to
        :attr:`job_overlap`. Untagged transfers (a trainer that owns its
        network) skip the job accounting path entirely.
        """
        if not 0.0 <= size < _INF:
            if not math.isfinite(size):
                raise ValueError(f"non-finite transfer size {size}")
            raise ValueError(f"negative transfer size {size}")
        if prio not in CLASS_NAMES:
            raise ValueError(f"unknown priority class {prio!r}")
        if not self.priorities:
            prio = PRIO_NORMAL
        cached = self._route_cache.get((src, dst))
        if cached is None:
            cached = self._route_cache[(src, dst)] = self._route_entry(src, dst)
        route, links, latency, loss = cached
        done = Event(self.env)
        fid = self._next_fid
        self._next_fid = fid + 1
        now = self.env.now
        size = float(size)
        effective = size * (1.0 + loss)
        # Positional, in field order: fid, src, dst, size, effective, route,
        # latency, done, tag, start_time, rate, links, prio, job, t_anchor, rem_anchor.
        flow = Flow(
            fid, src, dst, size, effective, route, latency, done, tag,
            now, 0.0, links, prio, job, now, effective,
        )

        if not route or effective <= _BYTE_EPS:
            # Loopback or empty payload: only latency applies.
            self._finish(flow)
            return done

        self._drain()
        # Into the active set and the solver bookkeeping.
        if job is not None:
            n = self._job_count.get(job, 0)
            if not n:
                self._jobs_change()
            self._job_count[job] = n + 1
            flow.mark = effective
        self._active[fid] = flow
        self._pending_new.append(fid)
        self._solver_routes[fid] = links
        self._solver_prios[fid] = prio
        classes = self._class_count
        classes[prio] = classes.get(prio, 0) + 1
        index = self._link_flows
        for name in links:
            members = index.get(name)
            if members is None:
                index[name] = {fid: None}
            else:
                self._touched.append(name)  # couples with an existing flow
                members[fid] = None
        if self._cohort is not None:
            self._loose[fid] = flow
            self._push_shares(flow)
        for hook in self.flow_hooks:
            hook(flow)
        self.inflight_payload += size
        self._schedule_rerate()
        return done

    def ledger(self) -> Ledger:
        """The byte ledgers as of now: each link's carried bytes and the
        per-class and per-job byte counters, every active flow's progress
        included, and each active flow's remaining bytes.

        A flow credits its exact effective bytes to its links and counters
        when it finishes; this is the one place its progress before that is
        worked out (``effective − remaining``, from its anchor). Readers of
        mid-flight state (probes, checkpoints, :meth:`job_bytes`) go through
        it. O(links + active flows × route length).
        """
        links = {l.name: l.bytes_carried for l in self.topology.links}
        counters = {k: v for k, v in self.stats.items() if "_bytes." in k}
        remaining: dict[int, float] = {}
        contended = len(self._job_count) > 1
        priorities = self.priorities
        for fid, flow in self._active.items():
            rem = remaining[fid] = flow.remaining
            moved = flow.effective - rem
            if moved <= 0:
                continue
            for link in flow.route:
                links[link.name] += moved
            if priorities:
                counters[_BYTE_COUNTERS[flow.prio]] += moved
            job = flow.job
            if job is not None:
                name = _job_counter(job)
                counters[name] = counters.get(name, 0.0) + moved
                if contended and flow.mark > rem:
                    name = _contended_counter(job)
                    counters[name] = counters.get(name, 0.0) + flow.mark - rem
        return Ledger(links, counters, remaining)

    def job_bytes(self, job: str) -> float:
        """Effective bytes moved so far by flows tagged ``job=``."""
        return float(self.ledger().counters.get(_job_counter(job), 0.0))

    def contended_bytes(self, job: str) -> float:
        """Those of :meth:`job_bytes` moved while another job had flows
        in flight."""
        return float(self.ledger().counters.get(_contended_counter(job), 0.0))

    def refresh_capacities(self) -> None:
        """Re-read link bandwidths after a fault changed them.

        Rebuilds the capacity map from the links' effective bandwidths and
        re-runs the fair-share allocation of the whole fabric, so a
        bandwidth dip/flap immediately slows (or a clear immediately speeds
        up) in-flight transfers: each flow whose rate changes is anchored at
        this instant. Loss-rate changes, by contrast, only affect flows
        started after the change: retransmission inflation is sampled at
        flow start.
        """
        self._drain()
        self._capacities = {l.name: l.bandwidth for l in self.topology.links}
        if self._cohort is not None:
            self._reshare()
        self._touch_all()  # every allocation assumed the old capacities
        self._rerate()

    # ------------------------------------------------------------ internals
    # A counter is bumped where it is counted: in :attr:`stats` and, while a
    # recorder is attached, in its ``counters`` (``_mirror``), with ``.get``
    # there because a recorder holds a key only from its first bump.

    def _route_entry(self, src, dst) -> tuple:
        """The route cache's entry for (src, dst): the route, its distinct
        link names, and its latency and loss folded from the links' current
        state as the topologies fold them."""
        route = tuple(self.topology.route(src, dst))
        latency = 0.0
        keep = 1.0
        for link in route:
            latency += link.spec.latency
            keep *= 1.0 - link.loss_rate
        return route, tuple(dict.fromkeys(l.name for l in route)), latency, 1.0 - keep

    def _retire(self, flow: Flow) -> None:
        """Remove a finished flow from the active set and the solver
        bookkeeping, and credit its exact effective bytes to every link of
        its route, its class and its job."""
        fid = flow.fid
        prio = flow.prio
        effective = flow.effective
        for link in flow.route:
            link.bytes_carried += effective
        stats = self.stats
        mirror = self._mirror
        if self.priorities:
            name = _BYTE_COUNTERS[prio]
            stats[name] += effective
            if mirror is not None:
                mirror[name] = mirror.get(name, 0) + effective
        job = flow.job
        if job is not None:
            name = _job_counter(job)
            stats[name] = stats.get(name, 0) + effective
            if mirror is not None:
                mirror[name] = mirror.get(name, 0) + effective
            if len(self._job_count) > 1:
                # moved since the last change of the job set, all contended
                name = _contended_counter(job)
                stats[name] = stats.get(name, 0) + flow.mark
                if mirror is not None:
                    mirror[name] = mirror.get(name, 0) + flow.mark
        del self._active[fid]
        if job is not None:
            n = self._job_count[job] - 1
            if n:
                self._job_count[job] = n
            else:
                self._jobs_change()
                del self._job_count[job]
        del self._solver_routes[fid]
        del self._solver_prios[fid]
        classes = self._class_count
        n_cls = classes[prio] - 1
        if n_cls:
            classes[prio] = n_cls
        else:
            del classes[prio]
        self.inflight_payload -= flow.size
        index = self._link_flows
        for name in flow.links:
            members = index[name]
            del members[fid]
            if members:
                self._touched.append(name)  # survivors on this link speed up
            else:
                del index[name]
        cohort = self._cohort
        if cohort is not None:
            if flow.cohort is cohort:
                cohort.size -= 1
                flow.cohort = None
            else:
                del self._loose[fid]
            self._push_shares(flow)
        self._finish(flow)

    def _push_shares(self, flow: Flow) -> None:
        """Push the shares of a flow's links after it joined or left them
        (while there is a cohort). A link new to the index gets the next
        arrival; one the flow left empty loses its own."""
        index = self._link_flows
        caps = self._capacities
        arrival = self._arrival
        shares = self._shares
        for name in flow.links:
            members = index.get(name)
            if members is None:
                del arrival[name]
                continue
            seq = arrival.get(name)
            if seq is None:
                self._arrivals += 1
                seq = arrival[name] = self._arrivals
            heappush(shares, (caps[name] / len(members), seq, name))
        if len(shares) > 2 * len(index) + 64:
            self._reshare()

    def _reshare(self) -> None:
        """Rebuild the share heap from the loaded links (stale entries go)."""
        caps = self._capacities
        arrival = self._arrival
        self._shares = [
            (caps[name] / len(members), arrival[name], name)
            for name, members in self._link_flows.items()
        ]
        heapify(self._shares)

    def _round1(self) -> tuple[float, float, str]:
        """The least share of any loaded link, the least of any *other*
        (an exact tie included), and the first-arrived link with the least:
        round 1 of the whole fabric's solve, off the top of the share heap."""
        heap = self._shares
        index = self._link_flows
        arrival = self._arrival
        caps = self._capacities
        best = None
        while heap:
            share, seq, name = heap[0]
            if (
                arrival.get(name) != seq
                or share != caps[name] / len(index[name])
                or (best is not None and name == best[2])
            ):
                heappop(heap)  # stale, or a copy of the best link's entry
            elif best is None:
                best = heappop(heap)
            else:
                break
        second = heap[0][0] if heap else _INF
        heappush(heap, best)
        return best[0], second, best[2]

    def _jobs_change(self) -> None:
        """Close the period of the current set of jobs in flight: just
        before a job's first flow joins it or its last flow leaves.

        The period's length goes to :attr:`job_overlap` under that set. If
        it held more than one job, the bytes each in-flight job flow moved
        during it count as contended
        (``netsim.job_contended_bytes.{job}``). Every in-flight job flow's
        mark moves to its remaining bytes now, where the next period counts
        from.
        """
        now = self.env.now
        jobs = self._job_count
        dt = now - self._jobs_since
        self._jobs_since = now
        if not jobs:
            return
        if dt > 0:
            key = frozenset(jobs)
            self.job_overlap[key] = self.job_overlap.get(key, 0.0) + dt
        contended = len(jobs) > 1
        stats = self.stats
        mirror = self._mirror
        for flow in self._active.values():
            if flow.job is None:
                continue
            rem = flow.remaining
            if contended and flow.mark > rem:
                name = _contended_counter(flow.job)
                moved = flow.mark - rem
                stats[name] = stats.get(name, 0) + moved
                if mirror is not None:
                    mirror[name] = mirror.get(name, 0) + moved
            flow.mark = rem

    def _drain(self) -> None:
        """Bring the fabric to the current instant.

        Nothing moves here: a flow's progress is its anchor. When the clock
        has moved since the last call, the flows whose remaining bytes have
        come down to ``_BYTE_EPS`` join :attr:`_finished` (in fid order),
        for the rerate to retire. Then ``drain_hooks`` run.
        """
        now = self.env.now
        if now > self._last_update:
            self._last_update = now
            if self._active:
                self._collect(now)
        for hook in self.drain_hooks:
            hook()

    def _collect(self, now: float) -> None:
        """Append the active flows whose remaining bytes at ``now`` are at
        most ``_BYTE_EPS`` to :attr:`_finished`, in fid order."""
        eps = _BYTE_EPS
        for flow in self._candidates(now):
            if flow.rem_anchor - flow.rate * (now - flow.t_anchor) <= eps:
                self._finished.append(flow)

    def _candidates(self, now: float):
        """The active flows that can have reached their end by ``now``, in
        fid order: every one, except that of the cohort's members only
        those whose remaining bytes at its last step are within what its
        rate moves by ``now`` (an end rounds to ``now`` from up to
        ``rate·ulp(now)`` bytes off), synced."""
        cohort = self._cohort
        if cohort is None:
            return self._active.values()
        ahead = _BYTE_EPS + cohort.rate * (now - cohort.t + now * _NEAR)
        flows = cohort.near(cohort.cum[-1] + ahead)
        flows += self._loose.values()
        flows.sort(key=_FID)
        return flows

    def _schedule_rerate(self) -> None:
        """Arm (at most) one coalesced rerate for the current instant."""
        if self._pending:
            return
        self._pending = True
        self.env.defer(self._on_deferred_rerate)

    def _on_deferred_rerate(self, _event) -> None:
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

    def _solve(self, routes, links) -> dict[int, float]:
        """Rates of the flows of ``routes`` (whole link-components, fid
        order) over ``links``, their links with members.

        One class is plain max–min. Several go to the priority solve:
        classes solved highest first over the leftover capacity, equal-class
        flows sharing by max–min, lower classes starved outright on
        saturated links (``netsim.prio_preemptions`` counts flows whose
        running rate drops to zero).
        """
        active = self._active
        prios = self._solver_prios
        caps = self._capacities
        stats = self.stats
        mirror = self._mirror
        several = len(self._class_count) > 1 and (  # the fabric-wide count: O(1)
            routes is self._solver_routes  # the whole fabric: that count says it
            or len(set(map(prios.__getitem__, routes))) > 1
        )
        if several:
            rates = _prio_max_min(routes, caps, prios)
        else:
            rates = _max_min(routes, caps, links)
        stats["netsim.fairshare_calls"] += 1
        if mirror is not None:
            mirror["netsim.fairshare_calls"] = mirror.get("netsim.fairshare_calls", 0) + 1
        if several:  # a single class is never starved
            preempted = sum(
                rate == 0.0 and active[fid].rate > 0.0
                for fid, rate in rates.items()
            )
            if preempted:
                stats["netsim.prio_preemptions"] += preempted
                if mirror is not None:
                    mirror["netsim.prio_preemptions"] = (
                        mirror.get("netsim.prio_preemptions", 0) + preempted
                    )
        return rates

    def _rate(self, routes, links) -> None:
        """Solve the flows of ``routes`` over ``links`` and give them their
        rates: by one cohort step when the solve reaches the cohort and
        leaves its flows (and newcomers on its link) one share, else flow by
        flow — after which a whole-fabric solve may form a cohort."""
        cohort = self._cohort
        whole = links is self._link_flows
        if cohort is not None and cohort.link in links:
            share = self._one_share(routes) if whole else None
            if share is None:
                rates = self._solve(routes, links)
                share = min(rates.values())
                if share != max(rates.values()):
                    share = None
            else:  # round 1 off the share heap was the whole solve
                self.stats["netsim.fairshare_calls"] += 1
                mirror = self._mirror
                if mirror is not None:
                    mirror["netsim.fairshare_calls"] = (
                        mirror.get("netsim.fairshare_calls", 0) + 1
                    )
                rates = None
            if share is not None and self._cohort_step(routes, links, share):
                return
            self._dissolve()
            if rates is None:
                rates = dict.fromkeys(routes, share)
        else:
            rates = self._solve(routes, links)
        self._write_back(rates)
        if whole and self._cohort is None and len(rates) >= _COHORT_MIN:
            self._form_cohort(next(iter(rates.values())))

    def _one_share(self, routes) -> Optional[float]:
        """The share every flow of the whole fabric gets when round 1 of its
        solve ends the solve (one class, and the least-share link carries
        every flow more than ``2·_EPS`` below any other link's share), read
        off the share heap; else None."""
        if len(self._class_count) > 1:
            return None
        best, second, link = self._round1()
        if len(self._link_flows[link]) == len(routes) and second - best > 2 * _EPS:
            return best
        return None

    def _write_back(self, rates: dict[int, float]) -> None:
        """Give each flow of ``rates`` its rate.

        A flow whose rate changes is anchored at this instant: its
        remaining bytes now, from the anchor the instant started with, and
        its end at that rate. If a later solve of the same instant gives it
        back the rate it started the instant with, the starting anchor is
        restored, so the anchor depends only on the rates a flow starts and
        ends an instant with — not on how many solves ran in between.
        """
        active = self._active
        now = self.env.now
        for fid, rate in rates.items():
            flow = active[fid]
            old = flow.rate
            if rate == old:
                continue
            t_anchor = flow.t_anchor
            if t_anchor != now:
                rem = flow.rem_anchor
                flow.back = (t_anchor, rem, old)
                rem -= old * (now - t_anchor)
                flow.rem_anchor = rem
                flow.t_anchor = t_anchor = now
            else:
                back = flow.back
                if back is not None and rate == back[2]:
                    t_anchor, rem, _ = back
                    flow.t_anchor = t_anchor
                    flow.rem_anchor = rem
                else:
                    rem = flow.rem_anchor
            flow.rate = rate
            flow.t_end = t_anchor + rem / rate if rate > 0 else _INF

    def _form_cohort(self, rate: float) -> None:
        """Make the active flows one cohort, if the whole-fabric solve just
        written back left every one at ``rate`` from this instant and one
        link that they all cross gives them that share."""
        now = self.env.now
        flows = self._active.values()
        for flow in flows:
            if flow.t_anchor != now or flow.rate != rate:
                return
        n = len(self._active)
        caps = self._capacities
        index = self._link_flows
        for link, members in index.items():
            if len(members) == n and caps[link] / n == rate:
                break
        else:
            return
        cohort = self._cohort = _Cohort(link, now, rate)
        for flow in flows:
            flow.cohort = cohort
            flow.base = 0
        cohort.heap = [(flow.rem_anchor, flow.fid, flow) for flow in flows]
        heapify(cohort.heap)
        cohort.size = n
        self._loose = {}
        self._arrival = {name: seq for seq, name in enumerate(index)}
        self._arrivals = len(index)
        self._reshare()

    def _cohort_step(self, routes, links, rate: float) -> bool:
        """Re-rate the cohort in O(1) when a solve reached exactly the flows
        on its link and gave them all one share, ``rate``, new flows joining
        it; False when it cannot stay one cohort.

        The step ``rate_before·(now − t)`` is the subtraction re-anchoring
        would apply to each member; a second change within the step's
        instant only changes the rate. A change back to the rate the instant
        started with (where each member restores its own ``back``), one
        within the instant the cohort formed, a share that leaves the
        newcomers' anchors apart from the members', or a long-lived cohort
        hands the members back to per-flow anchors instead.
        """
        cohort = self._cohort
        now = self.env.now
        if len(links[cohort.link]) != len(routes):
            return False  # some flow of the solve is not on the cohort's link
        new = [fid for fid in self._pending_new if fid in routes]
        if len(routes) != cohort.size + len(new):
            return False
        if rate != cohort.rate and cohort.t == now:
            # A second change within the instant of the last step: the
            # anchors stay, unless the rate goes back to the one the
            # instant started with (each member restores its own ``back``).
            if cohort.formed == now or rate == cohort.rates[-1]:
                return False
            cohort.rate = rate
        elif rate != cohort.rate:
            if len(cohort.steps) >= _MAX_STEPS:
                return False
            step = cohort.rate * (now - cohort.t)
            cohort.steps.append(step)
            cohort.times.append(cohort.t)
            cohort.rates.append(cohort.rate)
            cohort.cum.append(cohort.cum[-1] + step)
            cohort.t = now
            cohort.rate = rate
        elif new and cohort.t != now:
            return False
        base = len(cohort.steps)
        cum = cohort.cum[-1]
        loose = self._loose
        for fid in new:
            flow = loose.pop(fid)  # unrated, anchored at its start: now
            flow.rate = rate
            flow.t_end = now + flow.rem_anchor / rate
            flow.cohort = cohort
            flow.base = base
            heappush(cohort.heap, (flow.rem_anchor + cum, fid, flow))
        cohort.size += len(new)
        return True

    def _dissolve(self) -> None:
        """Hand the cohort's members back to per-flow anchors (the solve
        that could not step the cohort rates every one of them next), and
        stop keeping the share heap."""
        cohort = self._cohort
        self._cohort = None
        for flow in self._active.values():
            if flow.cohort is cohort:
                cohort.sync(flow)
                flow.cohort = None
        self._loose = {}
        self._shares = []
        self._arrival = {}

    def _horizon(self) -> float:
        """The nearest end among the active flows (``_INF`` if none moves):
        the cohort's from the top of its key heap, the others' by a scan."""
        horizon = _INF
        flows = self._active.values()
        cohort = self._cohort
        if cohort is not None:
            flows = self._loose.values()
            heap = cohort.heap
            while heap and heap[0][2].cohort is not cohort:
                heappop(heap)  # finished
            if heap:
                horizon = min(map(_T_END, cohort.near(heap[0][0])))
        return min(horizon, min(map(_T_END, flows), default=_INF))

    def _stalled(self, now: float) -> None:
        """Append the active flows whose end is not after ``now`` to
        :attr:`_finished`, in fid order, their anchors zeroed."""
        for flow in self._candidates(now):
            if flow.t_end <= now:
                flow.rem_anchor = 0.0
                flow.t_anchor = now
                self._finished.append(flow)

    def _rerate(self) -> None:
        """Recompute fair rates, complete finished flows, arm the next timer."""
        now = self.env.now
        self._pending = False
        stats = self.stats
        mirror = self._mirror
        stats["netsim.rerates"] += 1
        if mirror is not None:
            mirror["netsim.rerates"] = mirror.get("netsim.rerates", 0) + 1
        if self._timer is not None:
            self.env.cancel(self._timer)
            self._timer = None
        while True:
            # Complete the flows the drain (or the guard below) finished.
            finished = self._finished
            if finished:
                self._finished = []
                for flow in finished:
                    self._retire(flow)

            if not self._active:
                self._pending_new.clear()
                self._touched.clear()
                if self._cohort is not None:
                    self._dissolve()
                return

            routes, links = self._reach()
            if routes:
                self._rate(routes, links)
            else:
                stats["netsim.rerate_skipped"] += 1
                if mirror is not None:
                    mirror["netsim.rerate_skipped"] = (
                        mirror.get("netsim.rerate_skipped", 0) + 1
                    )
            # A new flow no touched link reached is alone on its links, so
            # its share is its route's min capacity — whatever its class
            # (nobody to preempt or defer to).
            if self._pending_new:
                cap = self._capacities.__getitem__
                active = self._active
                alone = {
                    fid: min(map(cap, active[fid].links))
                    for fid in self._pending_new
                    if fid not in routes
                }
                self._pending_new.clear()
                if alone:
                    self._write_back(alone)

            horizon = self._horizon()
            if horizon == _INF:  # pragma: no cover - defensive
                raise RuntimeError("active flows but no positive rate")
            if horizon > now:
                break
            # Float-precision guard: the nearest end is too close to advance
            # the clock (remaining bytes are sub-epsilon relative to the
            # current timestamp). Without this, the timer would re-arm at the
            # same instant forever. Finish those flows and loop.
            self._stalled(now)

        # The timer fires at the first time the clock can show that is not
        # before the nearest end.
        delay = horizon - now
        while now + delay < horizon:
            delay = math.nextafter(delay, _INF)
        timer = self._timer = self.env.timeout(delay)
        timer.callbacks.append(self._on_timer)

    def _on_timer(self, timer) -> None:
        self._timer = None
        self._drain()
        self._rerate()

    def _finish(self, flow: Flow) -> None:
        """Deliver the completion event after the route's one-way latency.

        With latency, ``done`` is queued NORMAL at ``now + latency`` and
        stays untriggered until its entry pops; without, it succeeds URGENT
        at this instant.
        """
        record = RecordBuilder(
            flow.fid, flow.src, flow.dst, flow.size, flow.tag,
            flow.start_time, self.env.now + flow.latency, flow.job,
        )
        self.records.append(record)
        if flow.latency > 0:
            self.env.deliver(flow.done, record, flow.latency)
        else:
            flow.done.succeed(record, priority=URGENT)


__all__ = ["Ledger", "Network"]
