"""Time-series metrics plane: clock-driven sampling into ring buffers.

:class:`MetricSampler` hangs off ``Environment.metric_sampler`` and
publishes its next sampling edge as ``next_edge``. The kernel calls it
after a processed event's callbacks ran, once the clock has reached that
edge (never otherwise, so the stretch between edges costs one comparison
per event). It then reads every tracer counter track and every attached
probe (each returns a ``{track: value}`` mapping) and stores the tick as
one row: the tick's time, and for each value its series' column index and
the value, appended to flat ``array`` columns. Rows are folded into the per-series fixed-capacity numpy rings
(:class:`Series`) when the series are read (``series``, ``series_for``,
``as_dict``) and every ``capacity`` ticks, so a series keeps exactly the
last-``capacity`` window and ``dropped`` count that appending to it at
every tick would give, and the pending rows never outgrow one ring's worth
of ticks. A track name is validated the first time the sampler sees it.

Two invariants, inherited from the tracer (see ``docs/observability.md``):

1. **Passive / non-perturbing.** Sampling never creates simulation
   events, timeouts or processes — it is a pure read of simulator state at
   event boundaries. A sampled run's ``TrainingResult`` is bit-identical
   to an unsampled one (tested for numeric and timing runs in
   ``tests/obs/test_timeseries.py``).
2. **Zero-cost when off.** ``Environment.metric_sampler`` defaults to
   ``None``; the kernel pays one attribute check per event. Sampling
   implies tracing (worker/gauge signals come from the tracer and sync
   hooks), so :meth:`DistributedTrainer.enable_sampling` attaches both.

Every series name must be a registered gauge or match a
``repro.obs.registry.TRACKS`` template — the sampler raises on anything
undeclared, and the registry lint test enforces the same rule over literal
call sites.
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Optional

import numpy as np

from repro.bounds import COUNT, POSITIVE, check_bounds
from repro.obs.registry import is_registered_track

if TYPE_CHECKING:
    from repro.cluster.trainer import DistributedTrainer

#: Default ring capacity — at the default interval (half a base compute
#: time) this covers thousands of iterations before the ring wraps.
DEFAULT_CAPACITY = 4096

#: A probe reads simulator state and returns ``{track_name: value}``.
Probe = Callable[[float], Mapping[str, float]]


_EMPTY = np.empty(0, dtype=np.float64)


class Series:
    """A fixed-capacity ring buffer of ``(virtual time, value)`` samples.

    Appending past capacity overwrites the oldest samples and counts them
    in :attr:`dropped`; :attr:`times` / :attr:`values` always return the
    retained window in chronological order. The two buffers are allocated
    at the first write, so a series nobody has filled yet costs no ring.
    """

    __slots__ = ("name", "capacity", "_t", "_v", "_head", "_count", "dropped")
    BOUNDS = {"capacity": COUNT}

    def __init__(self, name: str, capacity: int = DEFAULT_CAPACITY) -> None:
        self.name = name
        self.capacity = capacity
        check_bounds(self)
        self._t = self._v = _EMPTY
        self._head = 0  # next write slot
        self._count = 0
        self.dropped = 0

    def _allocate(self) -> None:
        self._t = np.empty(self.capacity, dtype=np.float64)
        self._v = np.empty(self.capacity, dtype=np.float64)

    def append(self, t: float, v: float) -> None:
        if self._t is _EMPTY:
            self._allocate()
        self._t[self._head] = t
        self._v[self._head] = v
        self._head = (self._head + 1) % self.capacity
        if self._count < self.capacity:
            self._count += 1
        else:
            self.dropped += 1

    def extend(self, times: np.ndarray, values: np.ndarray) -> None:
        """Append aligned samples in order: the same ring, ``dropped`` and
        ``last()`` as calling :meth:`append` on each pair."""
        n = len(times)
        if n and self._t is _EMPTY:
            self._allocate()
        cap = self.capacity
        self.dropped += max(0, self._count + n - cap)
        self._count = min(cap, self._count + n)
        if n > cap:  # only the last ``cap`` survive; they fill the whole ring
            times, values = times[n - cap :], values[n - cap :]
            n = cap
        head = self._head
        first = min(n, cap - head)
        self._t[head : head + first] = times[:first]
        self._v[head : head + first] = values[:first]
        self._t[: n - first] = times[first:]
        self._v[: n - first] = values[first:]
        self._head = (head + n) % cap

    def __len__(self) -> int:
        return self._count

    def _ordered(self, buf: np.ndarray) -> np.ndarray:
        if self._count < self.capacity:
            return buf[: self._count].copy()
        return np.concatenate([buf[self._head :], buf[: self._head]])

    @property
    def times(self) -> np.ndarray:
        """Sample timestamps (virtual seconds), oldest first."""
        return self._ordered(self._t)

    @property
    def values(self) -> np.ndarray:
        """Sample values, oldest first (aligned with :attr:`times`)."""
        return self._ordered(self._v)

    def last(self) -> Optional[tuple[float, float]]:
        """The most recent ``(t, value)`` sample, or None if empty."""
        if self._count == 0:
            return None
        idx = (self._head - 1) % self.capacity
        return float(self._t[idx]), float(self._v[idx])

    def __repr__(self) -> str:
        return f"<Series {self.name} n={self._count} dropped={self.dropped}>"


class MetricSampler:
    """Samples probes + tracer counter tracks on clock edges.

    Parameters
    ----------
    env:
        The simulation environment (clock source). The sampler reads
        ``env.tracer`` lazily at each edge so it works regardless of
        attach order.
    interval:
        Virtual seconds between sampling edges.
    capacity:
        Ring capacity for every series.
    """

    BOUNDS = {"interval": POSITIVE, "capacity": COUNT}

    def __init__(self, env, interval: float, capacity: int = DEFAULT_CAPACITY) -> None:
        self.env = env
        self.interval = interval
        self.capacity = capacity
        check_bounds(self)
        self._series: dict[str, Series] = {}  # first-seen order
        self._column: dict[str, int] = {}  # track name -> its index in _series
        # Pending rows, one per tick since the last fold: its time and how
        # many (column, value) items it wrote to the flat columns.
        self._tick_t = array("d")
        self._tick_n = array("q")
        self._cols = array("q")
        self._vals = array("d")
        self._probes: list[Probe] = []
        #: Per writer (0 the tracer's gauges, then each probe in order): the
        #: track names of the mapping it returned last, in order, and their
        #: columns — a mapping with the same names reuses them.
        self._layouts: dict[int, tuple[list[str], array]] = {}
        #: The clock value at which the next sample is due: the kernel calls
        #: :meth:`on_advance` once the clock has reached it. The first edge
        #: fires on the first event at/after start.
        self.next_edge = env.now
        self.samples_taken = 0

    # ------------------------------------------------------------------ wiring
    def add_probe(self, probe: Probe) -> None:
        """Register a probe called at every sampling edge."""
        self._probes.append(probe)

    @property
    def series(self) -> dict[str, Series]:
        """Every series by track name, in the order first sampled."""
        self._fold()
        return self._series

    def _add(self, name: str) -> Series:
        if not is_registered_track(name):
            raise ValueError(
                f"unregistered time-series track {name!r}: declare it in "
                "repro.obs.registry (GAUGES or TRACKS) first"
            )
        self._column[name] = len(self._series)
        s = self._series[name] = Series(name, self.capacity)
        return s

    # ------------------------------------------------------------------ kernel
    def on_advance(self, now: float) -> None:
        """Kernel hook: a processed event's callbacks ran and the clock is
        at ``now`` (the kernel calls it only once ``now >= next_edge``)."""
        if now < self.next_edge:
            return
        self.sample(now)
        # One sample per crossing, however many edges the event jumped over
        # (multiplication, not repeated addition, keeps edges drift-free).
        crossed = int((now - self.next_edge) // self.interval) + 1
        self.next_edge += crossed * self.interval

    def sample(self, now: float) -> None:
        """Take one sample of every tracer gauge and attached probe.

        :attr:`samples_taken` counts this tick before any probe runs, so a
        :class:`FabricLedger` can tell it from the one before."""
        self.samples_taken += 1
        before = len(self._vals)
        tracer = self.env.tracer
        if tracer is not None:
            self._write(0, tracer.gauge_last)
        for writer, probe in enumerate(self._probes, 1):
            self._write(writer, probe(now))
        self._tick_t.append(now)
        self._tick_n.append(len(self._vals) - before)
        if len(self._tick_t) >= self.capacity:
            self._fold()

    def _write(self, writer: int, values: Mapping[str, float]) -> None:
        names = list(values)
        layout = self._layouts.get(writer)
        if layout is None or layout[0] != names:
            column = self._column
            for name in names:
                if name not in column:  # a name never seen before: validate it
                    self._add(name)
            layout = self._layouts[writer] = (names, array("q", [column[n] for n in names]))
        self._cols.extend(layout[1])
        self._vals.fromlist(list(values.values()))

    def _fold(self) -> None:
        """Move the pending rows into the rings, each series in tick order."""
        if not self._tick_t:
            return
        cols = np.frombuffer(self._cols, dtype=np.int64)
        vals = np.frombuffer(self._vals, dtype=np.float64)
        times = np.repeat(
            np.frombuffer(self._tick_t, dtype=np.float64),
            np.frombuffer(self._tick_n, dtype=np.int64),
        )
        order = np.argsort(cols, kind="stable")
        bounds = np.cumsum(np.bincount(cols, minlength=len(self._series))).tolist()
        start = 0
        for ring, stop in zip(self._series.values(), bounds):
            if stop > start:
                seg = order[start:stop]
                ring.extend(times[seg], vals[seg])
            start = stop
        self._tick_t, self._tick_n = array("d"), array("q")
        self._cols, self._vals = array("q"), array("d")

    # ------------------------------------------------------------------ export
    def as_dict(self) -> dict[str, dict[str, list[float]]]:
        """All series as plain lists (JSON-friendly), keyed by track name."""
        return {
            name: {"t": s.times.tolist(), "v": s.values.tolist()}
            for name, s in sorted(self.series.items())
        }


# --------------------------------------------------------------------- probes
class FabricLedger:
    """:meth:`Network.ledger` read at most once per sampler tick.

    Every probe that reads the fabric's bytes (:class:`NetworkProbe`,
    :class:`WorkerProbe`, :class:`MultiJobProbe`) takes the same one, so a
    tick walks the active flows once however many probes read them. A tick
    is told apart by the sampler's ``samples_taken``, which
    :meth:`MetricSampler.sample` counts before it calls a probe; the probes'
    constructors share one reading for their baselines the same way.
    """

    __slots__ = ("network", "_sampler", "_tick", "_ledger")

    def __init__(self, network, sampler: MetricSampler) -> None:
        self.network = network
        self._sampler = sampler
        self._tick = -1
        self._ledger = None

    def __call__(self):
        tick = self._sampler.samples_taken
        if tick != self._tick:
            self._tick = tick
            self._ledger = self.network.ledger()
        return self._ledger


class NetworkProbe:
    """Cluster-wide and per-link network signals.

    * ``timeseries.net.inflight_bytes`` — remaining effective bytes over
      all active flows, at the sample's time;
    * ``timeseries.net.active_flows`` — in-flight flow count;
    * ``obs.net.inflight_bytes`` — in-flight payload bytes (the network's
      running sum);
    * ``timeseries.link.{name}.queue_depth`` — flows routed over the link;
    * ``timeseries.link.{name}.utilization`` — window byte delta over
      nominal capacity (fault dips read as *low* utilisation);
    * ``timeseries.link.{name}.bandwidth_factor`` — fault state;
    * ``timeseries.net.prio.preemptions`` / ``timeseries.net.prio.{cls}.bytes``
      — priority-scheduler activity (cumulative: the preemption counter of
      ``Network.stats``, class bytes from :meth:`Network.ledger`).

    Bytes are read through :meth:`Network.ledger` (the tick's
    :class:`FabricLedger` reading), so a link's or a class's count includes
    the progress of the flows still in flight.
    """

    _PRIO_BYTES = tuple(
        (f"timeseries.net.prio.{cls}.bytes", f"netsim.prio_bytes.{cls}")
        for cls in ("urgent", "high", "normal", "bulk")
    )

    def __init__(self, fabric: FabricLedger) -> None:
        network = self.network = fabric.network
        self._fabric = fabric
        self._links = tuple(network.topology.links)
        self._tracks = tuple(
            (
                f"timeseries.link.{link.name}.queue_depth",
                f"timeseries.link.{link.name}.utilization",
                f"timeseries.link.{link.name}.bandwidth_factor",
            )
            for link in self._links
        )
        self._last_t: Optional[float] = None
        carried = fabric().links
        self._last_bytes = [carried[link.name] for link in self._links]

    def __call__(self, now: float) -> dict[str, float]:
        net = self.network
        ledger = self._fabric()
        flows = net.active_flows
        out = {
            "timeseries.net.inflight_bytes": float(sum(ledger.remaining.values())),
            "timeseries.net.active_flows": float(len(flows)),
            "obs.net.inflight_bytes": net.inflight_payload,
        }
        depth: dict[str, int] = {}
        for f in flows:
            for link in f.route:
                depth[link.name] = depth.get(link.name, 0) + 1
        elapsed = 0.0 if self._last_t is None else now - self._last_t
        last_bytes = self._last_bytes
        links = ledger.links
        for i, (link, (queue, util, factor)) in enumerate(zip(self._links, self._tracks)):
            carried = links[link.name]
            window = carried - last_bytes[i]
            last_bytes[i] = carried
            out[queue] = float(depth.get(link.name, 0))
            out[util] = link.window_utilization(window, elapsed)
            out[factor] = link.bandwidth_factor
        self._last_t = now
        stats = net.stats
        out["timeseries.net.prio.preemptions"] = float(
            stats.get("netsim.prio_preemptions", 0)
        )
        counters = ledger.counters
        for track, counter in self._PRIO_BYTES:
            out[track] = float(counters.get(counter, 0.0))
        return out


class PSProbe:
    """Parameter-server aggregation backlog signals."""

    def __init__(self, ps) -> None:
        self.ps = ps

    def __call__(self, now: float) -> dict[str, float]:
        return {
            "timeseries.ps.pending_deposits": float(self.ps.pending_total()),
            "timeseries.ps.open_buckets": float(self.ps.open_buckets()),
        }


class WorkerProbe:
    """Per-worker health signals under ``osp.worker.{w}.*``.

    Generic signals come from the recorder (consumed incrementally through
    a cursor): latest compute/sync time, completed-iteration progress and
    the progress-lag staleness estimate. Effective bandwidth is the
    worker's uplink byte delta per window (read through the tick's
    :class:`FabricLedger`, in-flight progress included). The sync model's
    :meth:`~repro.sync.base.SyncModel.worker_signals` is merged last so
    model-specific semantics (SSP bound-relative staleness, OSP ICS
    backlog) override the generic estimates.
    """

    def __init__(self, trainer: "DistributedTrainer", fabric: FabricLedger) -> None:
        self.trainer = trainer
        self._fabric = fabric
        self._cursor = 0
        n = trainer.spec.n_workers
        self._tracks = {
            w: (
                f"osp.worker.{w}.progress",
                f"osp.worker.{w}.staleness",
                f"osp.worker.{w}.compute_time",
                f"osp.worker.{w}.sync_time",
                f"osp.worker.{w}.effective_bandwidth",
            )
            for w in range(n)
        }
        self._compute: dict[int, float] = {}
        self._sync: dict[int, float] = {}
        self._progress: dict[int, int] = {w: 0 for w in range(n)}
        self._last_t: Optional[float] = None
        uplinks = trainer.network.topology.uplinks
        hosts = trainer.placement.hosts
        self._uplinks = {w: uplinks[hosts[trainer.spec.worker_node(w)]] for w in range(n)}
        carried = fabric().links
        self._last_up_bytes = {w: carried[link.name] for w, link in self._uplinks.items()}

    def __call__(self, now: float) -> dict[str, float]:
        trainer = self.trainer
        records = trainer.recorder.iterations
        while self._cursor < len(records):
            rec = records[self._cursor]
            self._cursor += 1
            self._compute[rec.worker] = rec.compute_time
            self._sync[rec.worker] = rec.sync_time
            self._progress[rec.worker] = self._progress.get(rec.worker, 0) + 1
        fastest = max(self._progress.values(), default=0)
        tracks = self._tracks
        signals: dict[str, float] = {}
        for w, done in sorted(self._progress.items()):
            progress, staleness, compute, sync, _bw = tracks[w]
            signals[progress] = float(done)
            signals[staleness] = float(fastest - done)
            if w in self._compute:
                signals[compute] = self._compute[w]
                signals[sync] = self._sync[w]
        elapsed = 0.0 if self._last_t is None else now - self._last_t
        carried = self._fabric().links
        for w, link in self._uplinks.items():
            window = carried[link.name] - self._last_up_bytes[w]
            self._last_up_bytes[w] = carried[link.name]
            *_, bandwidth = tracks[w]
            signals[bandwidth] = window / elapsed if elapsed > 0 else 0.0
        self._last_t = now
        signals.update(trainer.sync_model.worker_signals(trainer.ctx))
        return signals


class MultiJobProbe:
    """Per-tenant fabric signals under ``multijob.{job}.*``.

    The shared network's active flows grouped by ``flow.job``: each job's
    flow count and remaining bytes (as :class:`NetworkProbe` counts them
    fabric-wide), so a sampled co-tenant run shows each tenant's traffic
    envelope on one shared timeline.
    """

    def __init__(self, fabric: FabricLedger, jobs: "Iterable[str]") -> None:
        self.network = fabric.network
        self._fabric = fabric
        self.jobs = list(jobs)
        self._tracks = {
            job: (f"multijob.{job}.active_flows", f"multijob.{job}.inflight_bytes")
            for job in self.jobs
        }

    def __call__(self, now: float) -> dict[str, float]:
        flows = {job: 0 for job in self.jobs}
        inflight = {job: 0.0 for job in self.jobs}
        remaining = self._fabric().remaining
        for f in self.network.active_flows:
            if f.job in flows:
                flows[f.job] += 1
                inflight[f.job] += remaining[f.fid]
        out: dict[str, float] = {}
        for job, (n_flows, nbytes) in self._tracks.items():
            out[n_flows] = float(flows[job])
            out[nbytes] = inflight[job]
        return out


def default_interval(trainer: "DistributedTrainer") -> float:
    """Half a base compute time: ≥2 samples per iteration, cheap rings."""
    base = trainer.engine.base_compute_time(trainer.spec)
    return base / 2.0 if base > 0 else 0.05


def attach_standard_probes(sampler: MetricSampler, trainer: "DistributedTrainer") -> None:
    """Wire the network, PS and per-worker probes of a trainer (the network
    and worker probes share one :class:`FabricLedger`)."""
    fabric = FabricLedger(trainer.network, sampler)
    sampler.add_probe(NetworkProbe(fabric))
    sampler.add_probe(PSProbe(trainer.ps))
    sampler.add_probe(WorkerProbe(trainer, fabric))


__all__ = [
    "DEFAULT_CAPACITY",
    "FabricLedger",
    "MetricSampler",
    "MultiJobProbe",
    "NetworkProbe",
    "PSProbe",
    "Series",
    "WorkerProbe",
    "attach_standard_probes",
    "default_interval",
]
