"""repro.obs — span-based tracing + phase-attribution observability.

The measurement substrate for every performance claim in this repo:

* :class:`Tracer` — hierarchical spans / instants / counter tracks over
  virtual time (passive: never perturbs the simulation);
* :mod:`repro.obs.registry` — the central counter/gauge/track name
  registry (``osp.* / faults.* / obs.*``), lint-enforced;
* :func:`trace_document` / :func:`write_unified_trace` — a traced run's
  one record: a Perfetto-loadable Chrome trace with spans + network flows
  + counter tracks + fault instants, read back by :func:`read_trace`;
* :class:`OverlapReport` — hidden-sync ratio, BST decomposition and
  per-layer RS/ICS traffic accounting (the quantitative form of the
  paper's Figs. 1–3), built from that trace in memory or from its file;
* :class:`MetricSampler` (``repro.obs.timeseries``) — clock-driven ring
  buffer sampling of gauges, links, PS and per-worker health signals;
* :func:`health_report` — per-worker straggler z-scores / utilisation /
  staleness histograms;
* :func:`render_dashboard` / :func:`export_csv` / :func:`export_prometheus`
  — the ``repro dash`` static-HTML dashboard and its exports;
* :func:`compare_runs` — cross-run regression diffing of two unified
  traces with per-phase / per-worker wall-clock attribution.

See ``docs/observability.md`` for the span taxonomy and workflow.
"""

from repro._lazy import lazy_exports

__all__ = [
    "ALL_NAMES",
    "COUNTERS",
    "GAUGES",
    "HealthReport",
    "Histogram",
    "Instant",
    "MetricSampler",
    "NULL_TRACER",
    "NullTracer",
    "OverlapReport",
    "PHASES",
    "PHASE_GROUPS",
    "RegressionReport",
    "Series",
    "Span",
    "TRACKS",
    "Tracer",
    "WorkerHealth",
    "compare_runs",
    "export_csv",
    "export_prometheus",
    "health_report",
    "overlap_report_from_run",
    "overlap_report_from_trace",
    "read_trace",
    "render_dashboard",
    "trace_document",
    "tracer_to_trace_events",
    "write_unified_trace",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    __all__,
    {
        ".chrome": (
            "read_trace",
            "trace_document",
            "tracer_to_trace_events",
            "write_unified_trace",
        ),
        ".compare": ("PHASE_GROUPS", "PHASES", "RegressionReport", "compare_runs"),
        ".dash": ("export_csv", "export_prometheus", "render_dashboard"),
        ".health": ("HealthReport", "WorkerHealth", "health_report"),
        ".overlap": (
            "OverlapReport",
            "overlap_report_from_run",
            "overlap_report_from_trace",
        ),
        ".registry": ("ALL_NAMES", "COUNTERS", "GAUGES", "TRACKS"),
        ".timeseries": ("MetricSampler", "Series"),
        ".tracer": (
            "NULL_TRACER",
            "Histogram",
            "Instant",
            "NullTracer",
            "Span",
            "Tracer",
        ),
    },
)
