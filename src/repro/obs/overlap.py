"""Overlap analysis: how much synchronization was hidden inside compute.

The paper's central quantitative claim (Figs. 1–3) is that OSP's ICS stage
drains the unimportant gradients *while the next iteration computes*, so
its bytes cost (almost) no wall-clock time. :class:`OverlapReport` makes
that claim measurable for any recorded run:

* **hidden-sync ratio** — for every sync transfer, the fraction of its
  lifetime that overlapped the owning worker's compute intervals, weighted
  by payload bytes: ``Σ bytes·overlap_frac ÷ Σ bytes``. BSP/ASP score 0
  up to the rounding of microsecond timestamps (every transfer happens
  inside the blocking sync phase); OSP scores > 0 as soon as ICS carries
  traffic.
* **BST decomposition** — per-phase time attribution
  (``rs_push / rs_barrier_wait / rs_pull / ...``) from tracer spans.
* **per-layer RS/ICS traffic** — which layers the GIB kept synchronous
  and which it deferred, in bytes.

One builder, :func:`overlap_report_from_trace`, reads the unified trace
document (:mod:`repro.obs.chrome`). A finished traced run
(:func:`overlap_report_from_run`) and the trace file it writes
(``repro report trace.json``, offline) therefore give equal reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.metrics.report import format_table
from repro.obs.chrome import trace_document
from repro.obs.tracer import Histogram

#: Span names that are whole-iteration envelopes, not sync phases.
_ENVELOPE_SPANS = frozenset({"iteration", "compute", "sync"})

#: Background-track span names (work overlapped with compute by design).
BACKGROUND_SPANS = frozenset({"ics_push", "ics_wait", "ics_pull"})


@dataclass
class OverlapReport:
    """Aggregated overlap/attribution statistics for one run."""

    sync_name: str = "?"
    n_iterations: int = 0
    n_flows: int = 0
    total_sync_bytes: float = 0.0
    hidden_bytes: float = 0.0
    #: phase -> (total bytes, hidden bytes)
    phase_bytes: dict[str, tuple[float, float]] = (
        field(default_factory=dict, init=False)
    )
    #: (iteration, total bytes, hidden bytes), iteration-ascending
    per_iteration: list[tuple[int, float, float]] = field(default_factory=list)
    #: per-iteration sync-time distribution (BST)
    bst: Histogram = field(default_factory=Histogram, init=False)
    #: span name -> total seconds across the run (BST decomposition)
    phase_time: dict[str, float] = field(default_factory=dict, init=False)
    #: stage ("rs"/"ics") -> layer -> payload bytes
    layer_traffic: dict[str, dict[str, float]] = field(default_factory=dict)
    #: recorder counters; most are event counts (int) but byte accumulators
    #: (e.g. ``netsim.prio_bytes.*``) are floats
    counters: dict[str, float] = field(default_factory=dict)

    @property
    def hidden_sync_ratio(self) -> float:
        """Bytes-weighted fraction of sync traffic overlapped with compute."""
        if self.total_sync_bytes <= 0:
            return 0.0
        return self.hidden_bytes / self.total_sync_bytes

    def to_dict(self) -> dict:
        """JSON-serialisable form (``repro report --json``)."""
        return {
            "sync": self.sync_name,
            "n_iterations": self.n_iterations,
            "n_flows": self.n_flows,
            "total_sync_bytes": self.total_sync_bytes,
            "hidden_bytes": self.hidden_bytes,
            "hidden_sync_ratio": self.hidden_sync_ratio,
            "phase_bytes": {
                p: {"bytes": b, "hidden": h} for p, (b, h) in self.phase_bytes.items()
            },
            "bst": self.bst.summary(),
            "phase_time": dict(self.phase_time),
            "layer_traffic": {s: dict(l) for s, l in self.layer_traffic.items()},
            "counters": dict(self.counters),
        }

    # -- rendering ---------------------------------------------------------
    def render(self) -> str:
        """Human-readable multi-table report."""
        lines = [
            f"Overlap report — {self.sync_name}",
            f"  iterations: {self.n_iterations}   sync flows: {self.n_flows}",
            f"  hidden-sync ratio: {self.hidden_sync_ratio:.3f}   "
            f"({_fmt_bytes(self.hidden_bytes)} of "
            f"{_fmt_bytes(self.total_sync_bytes)} sync traffic "
            "overlapped with compute)",
            "",
        ]
        if self.phase_bytes:
            rows = []
            for phase in sorted(self.phase_bytes):
                b, h = self.phase_bytes[phase]
                frac = h / b if b > 0 else 0.0
                rows.append((phase, _fmt_bytes(b), _fmt_bytes(h), f"{frac:.1%}"))
            lines.append(
                format_table(
                    ["phase", "bytes", "hidden", "hidden %"],
                    rows,
                    title="Sync traffic by phase",
                )
            )
            lines.append("")
        if self.phase_time:
            n = max(1, self.n_iterations)
            rows = []
            for name in sorted(self.phase_time, key=self.phase_time.get, reverse=True):
                total = self.phase_time[name]
                bg = " (overlapped)" if name in BACKGROUND_SPANS else ""
                rows.append(
                    (name + bg, f"{total:.3f}", f"{total / n * 1e3:.2f}")
                )
            lines.append(
                format_table(
                    ["span", "total s", "ms/iter"],
                    rows,
                    title="BST decomposition (span time attribution)",
                )
            )
            lines.append("")
        s = self.bst.summary()
        lines.append(
            format_table(
                ["metric", "mean", "p50", "p90", "p99", "max"],
                [
                    (
                        "BST (ms)",
                        f"{s['mean'] * 1e3:.1f}",
                        f"{s['p50'] * 1e3:.1f}",
                        f"{s['p90'] * 1e3:.1f}",
                        f"{s['p99'] * 1e3:.1f}",
                        f"{s['max'] * 1e3:.1f}",
                    )
                ],
                title="Batch synchronization time distribution",
            )
        )
        for stage in sorted(self.layer_traffic):
            per_layer = self.layer_traffic[stage]
            if not per_layer:
                continue
            top = sorted(per_layer.items(), key=lambda kv: -kv[1])[:5]
            lines.append("")
            lines.append(
                format_table(
                    ["layer", "bytes"],
                    [(l, _fmt_bytes(b)) for l, b in top],
                    title=f"Top {stage.upper()} traffic by layer",
                )
            )
        if self.counters:
            lines.append("")
            lines.append(
                format_table(
                    ["counter", "count"],
                    sorted(self.counters.items()),
                    title="Event counters",
                )
            )
        return "\n".join(lines)


def _fmt_bytes(n: float) -> str:
    for unit, div in (("GB", 1e9), ("MB", 1e6), ("KB", 1e3)):
        if abs(n) >= div:
            return f"{n / div:.2f} {unit}"
    return f"{n:.0f} B"


def _overlap_seconds(intervals: list[tuple[float, float]], s: float, e: float) -> float:
    total = 0.0
    for a, b in intervals:
        lo, hi = max(a, s), min(b, e)
        if hi > lo:
            total += hi - lo
    return total


def _accumulate(
    report: OverlapReport,
    compute_by_worker: dict[int, list[tuple[float, float]]],
    flows: Iterable[dict],
) -> None:
    """Fold sync-flow slices into the report's byte accounting."""
    per_it: dict[int, list[float]] = {}
    for f in flows:
        nbytes = float(f["bytes"])
        duration = f["end"] - f["start"]
        worker = f.get("worker")
        intervals = compute_by_worker.get(worker, ())
        if duration > 0 and intervals:
            frac = _overlap_seconds(list(intervals), f["start"], f["end"]) / duration
        else:
            frac = 0.0
        hidden = nbytes * frac
        report.n_flows += 1
        report.total_sync_bytes += nbytes
        report.hidden_bytes += hidden
        phase = str(f.get("phase", "?"))
        b, h = report.phase_bytes.get(phase, (0.0, 0.0))
        report.phase_bytes[phase] = (b + nbytes, h + hidden)
        it = f.get("iteration")
        if it is not None:
            acc = per_it.setdefault(int(it), [0.0, 0.0])
            acc[0] += nbytes
            acc[1] += hidden
    report.per_iteration = [(it, b, h) for it, (b, h) in sorted(per_it.items())]


def overlap_report_from_run(result) -> OverlapReport:
    """Build a report from a finished, traced
    :class:`~repro.cluster.trainer.TrainingResult`: the report of its
    :func:`~repro.obs.chrome.trace_document`, so it equals the report of
    the trace file the run writes."""
    return overlap_report_from_trace(trace_document(result))


def overlap_report_from_trace(payload: dict) -> OverlapReport:
    """Build a report from a unified trace document:
    :func:`~repro.obs.chrome.trace_document`, or a file loaded (and
    checked) by :func:`~repro.obs.chrome.read_trace`."""
    other = payload.get("otherData", {})
    report = OverlapReport(sync_name=str(other.get("sync", "?")))

    compute_by_worker: dict[int, list[tuple[float, float]]] = {}
    flows = []
    for ev in payload["traceEvents"]:
        if ev.get("ph") != "X":
            continue
        args = ev.get("args", {})
        start = ev["ts"] / 1e6
        end = (ev["ts"] + ev.get("dur", 0.0)) / 1e6
        name = ev.get("name", "")
        if ev.get("pid") == "network":
            if "phase" in args:
                flows.append(
                    {
                        "phase": args["phase"],
                        "worker": args.get("worker"),
                        "iteration": args.get("iteration"),
                        "bytes": args.get("bytes", 0.0),
                        "start": start,
                        "end": end,
                    }
                )
            continue
        if name == "compute" and args.get("worker") is not None:
            compute_by_worker.setdefault(int(args["worker"]), []).append(
                (start, end)
            )
        elif name == "sync":
            report.bst.observe(end - start)
            report.n_iterations += 1
        elif name and name not in _ENVELOPE_SPANS and ev.get("cat") != "network":
            report.phase_time[name] = report.phase_time.get(name, 0.0) + (end - start)
    _accumulate(report, compute_by_worker, flows)

    report.layer_traffic = {
        str(stage): {str(l): float(b) for l, b in layers.items()}
        for stage, layers in other.get("traffic", {}).items()
    }
    # JSON round-trips ints as ints and floats exactly (repr), so keep the
    # stored numeric type — int() would truncate byte accumulators.
    report.counters = {
        str(k): v for k, v in other.get("recorderCounters", {}).items()
    }
    return report


__all__ = [
    "BACKGROUND_SPANS",
    "OverlapReport",
    "overlap_report_from_run",
    "overlap_report_from_trace",
]
