"""Time-series metrics plane: clock-driven sampling into ring buffers.

:class:`MetricSampler` hangs off ``Environment.metric_sampler`` and is
invoked by the kernel once per processed event (after its callbacks ran).
When the clock has crossed the next sampling edge it reads every attached
probe and every tracer counter track into fixed-capacity numpy ring
buffers (:class:`Series`) keyed by registered track names.

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
``repro.obs.registry.TRACKS`` template — :meth:`MetricSampler.series_for`
raises on anything undeclared, and the registry lint test enforces the
same rule over literal call sites.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, Optional

import numpy as np

from repro.obs.registry import is_registered_track

if TYPE_CHECKING:
    from repro.cluster.trainer import DistributedTrainer

#: Default ring capacity — at the default interval (half a base compute
#: time) this covers thousands of iterations before the ring wraps.
DEFAULT_CAPACITY = 4096

#: A probe reads simulator state and yields ``(track_name, value)`` pairs.
Probe = Callable[[float], Iterable[tuple[str, float]]]


class Series:
    """A fixed-capacity ring buffer of ``(virtual time, value)`` samples.

    Appending past capacity overwrites the oldest samples and counts them
    in :attr:`dropped`; :attr:`times` / :attr:`values` always return the
    retained window in chronological order.
    """

    __slots__ = ("name", "capacity", "_t", "_v", "_head", "_count", "dropped")

    def __init__(self, name: str, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.name = name
        self.capacity = int(capacity)
        self._t = np.empty(self.capacity, dtype=np.float64)
        self._v = np.empty(self.capacity, dtype=np.float64)
        self._head = 0  # next write slot
        self._count = 0
        self.dropped = 0

    def append(self, t: float, v: float) -> None:
        self._t[self._head] = t
        self._v[self._head] = v
        self._head = (self._head + 1) % self.capacity
        if self._count < self.capacity:
            self._count += 1
        else:
            self.dropped += 1

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

    def __init__(self, env, interval: float, capacity: int = DEFAULT_CAPACITY) -> None:
        if interval <= 0:
            raise ValueError(f"sampling interval must be positive, got {interval}")
        self.env = env
        self.interval = float(interval)
        self.capacity = int(capacity)
        self.series: dict[str, Series] = {}
        self._probes: list[Probe] = []
        self._next = env.now  # first edge fires on the first event at/after start
        self.samples_taken = 0

    # ------------------------------------------------------------------ wiring
    def add_probe(self, probe: Probe) -> None:
        """Register a probe called at every sampling edge."""
        self._probes.append(probe)

    def series_for(self, name: str) -> Series:
        """The (lazily created) series for a registered track name."""
        s = self.series.get(name)
        if s is None:
            if not is_registered_track(name):
                raise ValueError(
                    f"unregistered time-series track {name!r}: declare it in "
                    "repro.obs.registry (GAUGES or TRACKS) first"
                )
            s = Series(name, self.capacity)
            self.series[name] = s
        return s

    # ------------------------------------------------------------------ kernel
    def on_advance(self, now: float) -> None:
        """Kernel hook: called after each processed event's callbacks."""
        if now < self._next:
            return
        self.sample(now)
        # One sample per crossing, however many edges the event jumped over
        # (multiplication, not repeated addition, keeps edges drift-free).
        crossed = int((now - self._next) // self.interval) + 1
        self._next += crossed * self.interval

    def sample(self, now: float) -> None:
        """Take one sample of every tracer gauge and attached probe."""
        self.samples_taken += 1
        tracer = self.env.tracer
        if tracer is not None:
            for name, value in tracer.gauge_last.items():
                self.series_for(name).append(now, value)
        for probe in self._probes:
            for name, value in probe(now):
                self.series_for(name).append(now, float(value))

    # ------------------------------------------------------------------ export
    def as_dict(self) -> dict[str, dict[str, list[float]]]:
        """All series as plain lists (JSON-friendly), keyed by track name."""
        return {
            name: {"t": s.times.tolist(), "v": s.values.tolist()}
            for name, s in sorted(self.series.items())
        }


# --------------------------------------------------------------------- probes
class NetworkProbe:
    """Cluster-wide and per-link network signals.

    * ``timeseries.net.inflight_bytes`` — remaining payload over all
      active flows (as of the last drain; sampling never forces one);
    * ``timeseries.net.active_flows`` — in-flight flow count;
    * ``timeseries.link.{name}.queue_depth`` — flows routed over the link;
    * ``timeseries.link.{name}.utilization`` — window byte delta over
      nominal capacity (fault dips read as *low* utilisation);
    * ``timeseries.link.{name}.bandwidth_factor`` — fault state;
    * ``timeseries.net.prio.preemptions`` / ``timeseries.net.prio.{cls}.bytes``
      — priority-scheduler activity (cumulative, from ``Network.stats``).
    """

    def __init__(self, network) -> None:
        self.network = network
        self._last_t: Optional[float] = None
        self._last_bytes: dict[str, float] = {
            link.name: link.bytes_carried for link in network.topology.links
        }

    def __call__(self, now: float) -> Iterable[tuple[str, float]]:
        net = self.network
        flows = net.active_flows
        yield "timeseries.net.inflight_bytes", float(
            sum(max(f.remaining, 0.0) for f in flows)
        )
        yield "timeseries.net.active_flows", float(len(flows))
        depth: dict[str, int] = {}
        for f in flows:
            for link in f.route:
                depth[link.name] = depth.get(link.name, 0) + 1
        elapsed = 0.0 if self._last_t is None else now - self._last_t
        for link in net.topology.links:
            window = link.bytes_carried - self._last_bytes.get(link.name, 0.0)
            self._last_bytes[link.name] = link.bytes_carried
            yield f"timeseries.link.{link.name}.queue_depth", float(
                depth.get(link.name, 0)
            )
            yield f"timeseries.link.{link.name}.utilization", link.window_utilization(
                window, elapsed
            )
            yield f"timeseries.link.{link.name}.bandwidth_factor", link.bandwidth_factor
        self._last_t = now
        stats = net.stats
        yield "timeseries.net.prio.preemptions", float(
            stats.get("netsim.prio_preemptions", 0)
        )
        for cls_name in ("urgent", "high", "normal", "bulk"):
            yield f"timeseries.net.prio.{cls_name}.bytes", float(
                stats.get(f"netsim.prio_bytes.{cls_name}", 0.0)
            )


class PSProbe:
    """Parameter-server aggregation backlog signals."""

    def __init__(self, ps) -> None:
        self.ps = ps

    def __call__(self, now: float) -> Iterable[tuple[str, float]]:
        yield "timeseries.ps.pending_deposits", float(self.ps.pending_total())
        yield "timeseries.ps.open_buckets", float(self.ps.open_buckets())


class WorkerProbe:
    """Per-worker health signals under ``osp.worker.{w}.*``.

    Generic signals come from the recorder (consumed incrementally through
    a cursor): latest compute/sync time, completed-iteration progress and
    the progress-lag staleness estimate. Effective bandwidth is the
    worker's uplink byte delta per window. The sync model's
    :meth:`~repro.sync.base.SyncModel.worker_signals` is merged last so
    model-specific semantics (SSP bound-relative staleness, OSP ICS
    backlog) override the generic estimates.
    """

    def __init__(self, trainer: "DistributedTrainer") -> None:
        self.trainer = trainer
        self._cursor = 0
        n = trainer.spec.n_workers
        self._compute: dict[int, float] = {}
        self._sync: dict[int, float] = {}
        self._progress: dict[int, int] = {w: 0 for w in range(n)}
        self._last_t: Optional[float] = None
        uplinks = trainer.network.topology.uplinks
        hosts = trainer.placement.hosts
        self._uplinks = {w: uplinks[hosts[trainer.spec.worker_node(w)]] for w in range(n)}
        self._last_up_bytes = {w: link.bytes_carried for w, link in self._uplinks.items()}

    def __call__(self, now: float) -> Iterable[tuple[str, float]]:
        trainer = self.trainer
        records = trainer.recorder.iterations
        while self._cursor < len(records):
            rec = records[self._cursor]
            self._cursor += 1
            self._compute[rec.worker] = rec.compute_time
            self._sync[rec.worker] = rec.sync_time
            self._progress[rec.worker] = self._progress.get(rec.worker, 0) + 1
        fastest = max(self._progress.values(), default=0)
        signals: dict[str, float] = {}
        for w, done in sorted(self._progress.items()):
            signals[f"osp.worker.{w}.progress"] = float(done)
            signals[f"osp.worker.{w}.staleness"] = float(fastest - done)
            if w in self._compute:
                signals[f"osp.worker.{w}.compute_time"] = self._compute[w]
                signals[f"osp.worker.{w}.sync_time"] = self._sync[w]
        elapsed = 0.0 if self._last_t is None else now - self._last_t
        for w, link in self._uplinks.items():
            window = link.bytes_carried - self._last_up_bytes[w]
            self._last_up_bytes[w] = link.bytes_carried
            signals[f"osp.worker.{w}.effective_bandwidth"] = (
                window / elapsed if elapsed > 0 else 0.0
            )
        self._last_t = now
        signals.update(trainer.sync_model.worker_signals(trainer.ctx))
        return signals.items()


class MultiJobProbe:
    """Per-tenant fabric signals under ``multijob.{job}.*``.

    The shared network's active flows grouped by ``flow.job``: each job's
    flow count and remaining bytes (as :class:`NetworkProbe` counts them
    fabric-wide), so a sampled co-tenant run shows each tenant's traffic
    envelope on one shared timeline.
    """

    def __init__(self, network, jobs: "Iterable[str]") -> None:
        self.network = network
        self.jobs = list(jobs)

    def __call__(self, now: float) -> Iterable[tuple[str, float]]:
        flows = {job: 0 for job in self.jobs}
        inflight = {job: 0.0 for job in self.jobs}
        for f in self.network.active_flows:
            if f.job in flows:
                flows[f.job] += 1
                inflight[f.job] += max(f.remaining, 0.0)
        for job in self.jobs:
            yield f"multijob.{job}.active_flows", float(flows[job])
            yield f"multijob.{job}.inflight_bytes", inflight[job]


def default_interval(trainer: "DistributedTrainer") -> float:
    """Half a base compute time: ≥2 samples per iteration, cheap rings."""
    base = trainer.engine.base_compute_time(trainer.spec)
    return base / 2.0 if base > 0 else 0.05


def attach_standard_probes(sampler: MetricSampler, trainer: "DistributedTrainer") -> None:
    """Wire the network, PS and per-worker probes of a trainer."""
    sampler.add_probe(NetworkProbe(trainer.network))
    sampler.add_probe(PSProbe(trainer.ps))
    sampler.add_probe(WorkerProbe(trainer))


__all__ = [
    "DEFAULT_CAPACITY",
    "MetricSampler",
    "MultiJobProbe",
    "NetworkProbe",
    "PSProbe",
    "Series",
    "WorkerProbe",
    "attach_standard_probes",
    "default_interval",
]
