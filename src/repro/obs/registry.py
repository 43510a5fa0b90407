"""Central registry of observable-name conventions.

Every ``recorder.incr(...)`` counter, tracer gauge (counter track) and
sampled time-series track must use a name declared here. Namespaces:

* ``osp.*``    — OSP protocol events (degradations, deadline misses);
* ``faults.*`` — injected fault activations;
* ``ckpt.*``   — checkpoint/restore events (repro.ckpt);
* ``elastic.*`` — elastic membership changes (worker join/leave);
* ``check.*``  — runtime invariant checker (repro.check);
* ``obs.*``    — measurement-layer streams (network backlog, PS state).

A tier-1 lint test (``tests/obs/test_registry_lint.py``) greps the source
tree for ``.incr(`` call sites and fails on any name not declared here, so
counter names cannot silently drift between producers and the dashboards
/ benches that read them. Dynamic (f-string) call sites are matched with
``{...}`` treated as a wildcard; at least one declared name must match.
"""

from __future__ import annotations

import re
from functools import cache

#: Event counters recorded on :class:`~repro.metrics.recorder.Recorder`.
COUNTERS: frozenset[str] = frozenset(
    {
        # injected faults (repro.faults)
        "faults.loss_burst",
        "faults.bandwidth_dip",
        "faults.link_flap",
        "faults.straggler",
        "faults.worker_crash",
        "faults.worker_restart",
        # the synchronous round (repro.sync.base): any model that closes
        # one counts these, BSP as OSP's RS — the names predate that
        "osp.quorum_timeout",
        "osp.degraded_quorum",
        # OSP protocol events (repro.core.osp)
        "osp.deadline_miss",
        "osp.bsp_fallback",
        "osp.bsp_fallback_exit",
        # checkpoint/restore (repro.ckpt)
        "ckpt.save",
        "ckpt.restore",
        "ckpt.roundtrip_verified",
        "ckpt.ics_discarded_bytes",
        "ckpt.worker_recover",
        # elastic membership changes (repro.cluster.context)
        "elastic.worker_join",
        "elastic.worker_leave",
        # runtime invariant checker (repro.check)
        "check.violation",
        "check.events_checked",
        # network scheduler work counters (repro.netsim.network)
        "netsim.rerates",
        "netsim.rerate_skipped",
        "netsim.fairshare_calls",
        # priority scheduling (repro.netsim.network; see docs/performance.md)
        "netsim.prio_preemptions",
        "netsim.prio_bytes.urgent",
        "netsim.prio_bytes.high",
        "netsim.prio_bytes.normal",
        "netsim.prio_bytes.bulk",
        # multi-job co-tenancy attribution (repro.multijob.runner)
        "multijob.job_bytes",
        "multijob.contended_bytes",
        "multijob.solo_bytes",
    }
)

#: Counter-name *templates* with per-entity ``{...}`` segments (a tenant
#: job name, …). Like :data:`TRACKS` templates, each placeholder binds
#: exactly one dot-free segment — job names are validated against
#: ``[A-Za-z0-9_-]+`` at JobSpec construction so instantiations stay
#: single-segment.
COUNTER_TEMPLATES: frozenset[str] = frozenset(
    {
        # per-tenant effective bytes moved by the shared fabric
        "netsim.job_bytes.{job}",
        # ... of which moved while another tenant had flows in flight
        "netsim.job_contended_bytes.{job}",
    }
)

#: Streaming counter tracks sampled on the :class:`~repro.obs.Tracer`.
GAUGES: frozenset[str] = frozenset(
    {
        "osp.sgu_budget",
        "osp.u_max",
        "osp.inflight_ics_bytes",
        "osp.quorum_size",  # deposits present at a round close, any round model
        "obs.net.inflight_bytes",  # a NetworkProbe series, read at each tick
        "obs.ps.version",
    }
)

#: Time-series track name *templates* sampled by
#: :class:`~repro.obs.timeseries.MetricSampler`. ``{...}`` placeholders
#: stand for a single dotted segment (a worker index, a link name, …).
#: Every series the sampler creates must either be a declared gauge
#: (sampler mirrors of tracer counter tracks keep the gauge's own name)
#: or match one of these templates — the sampler raises on anything else,
#: and the registry lint test enforces the same rule over the source tree.
TRACKS: frozenset[str] = frozenset(
    {
        # cluster-wide signals (repro.obs.timeseries standard probes)
        "timeseries.net.inflight_bytes",
        "timeseries.net.active_flows",
        # priority scheduling; {cls} is urgent / high / normal / bulk
        "timeseries.net.prio.preemptions",
        "timeseries.net.prio.{cls}.bytes",
        "timeseries.ps.pending_deposits",
        "timeseries.ps.open_buckets",
        # per-link signals; {link} is e.g. ``up:3`` / ``down:0``
        "timeseries.link.{link}.utilization",
        "timeseries.link.{link}.queue_depth",
        "timeseries.link.{link}.bandwidth_factor",
        # per-worker health signals; {w} is the worker index
        "osp.worker.{w}.compute_time",
        "osp.worker.{w}.sync_time",
        "osp.worker.{w}.progress",
        "osp.worker.{w}.staleness",
        "osp.worker.{w}.effective_bandwidth",
        "osp.worker.{w}.ics_backlog_bytes",
        # per-tenant fabric occupancy; {job} is the co-tenant job name
        "multijob.{job}.active_flows",
        "multijob.{job}.inflight_bytes",
    }
)

#: Subscriber lists: ``{name}_hooks`` is a plain list of callables on the
#: object that owns the moment (table: docs/observability.md). The lint holds
#: each to one emitting loop and at least one subscriber under ``src/``.
HOOKS: frozenset[str] = frozenset(
    {
        "flow", "drain",  # repro.netsim.network.Network
        "deposit", "apply",  # repro.cluster.ps.ParameterServer
        "epoch_end", "membership", "round_close", "compute_start",  # TrainerContext
        "gib_staged",  # repro.core.osp.OSP
    }
)  # fmt: skip

ALL_NAMES: frozenset[str] = COUNTERS | GAUGES


def _compile(template: str) -> "re.Pattern[str]":
    pattern = re.escape(template)
    # re.escape turns { and } into \{ \} — rewrite each placeholder into a
    # "no dots" group so ``{w}`` can't swallow several dotted segments.
    return re.compile(re.sub(r"\\\{[^}]*\\\}", r"[^.]+", pattern))


@cache
def _track_patterns() -> tuple:
    """:data:`TRACKS`, one compiled pattern per template: compiled once, at
    the first name that is not a gauge (an import that validates no track
    compiles none)."""
    return tuple(_compile(t) for t in sorted(TRACKS))


def is_registered_track(name: str) -> bool:
    """Is ``name`` a valid time-series track?

    True for declared tracer gauges (the sampler mirrors those under their
    own names) and for concrete instantiations of the :data:`TRACKS`
    templates. Link names may themselves contain ``:`` (``up:3``) but never
    dots, so matching one template segment per placeholder stays exact.
    """
    if name in GAUGES:
        return True
    return any(p.fullmatch(name) is not None for p in _track_patterns())


__all__ = [
    "ALL_NAMES",
    "COUNTERS",
    "COUNTER_TEMPLATES",
    "GAUGES",
    "HOOKS",
    "TRACKS",
    "is_registered_track",
]
