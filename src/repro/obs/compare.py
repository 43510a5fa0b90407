"""Cross-run regression diffing: summaries, phase/worker attribution, verdicts.

:func:`run_summary` condenses a (traced) run into a JSON-able document:
wall clock, per-phase seconds (compute / rs / ics / lgp / pgp), the same
split per worker, counters and per-worker health. :func:`compare_runs`
diffs two summaries and attributes the wall-clock delta to the phase and
the worker that moved most — turning "run B is 12% slower" into "worker 2's
compute grew 9.3s inside the straggler window".

The verdict (``ok`` / ``improvement`` / ``regression``) is a relative
wall-clock slowdown against ``max_slowdown``, so CI can gate on
``repro report --compare A.json B.json`` directly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

from repro.obs.health import health_report

SUMMARY_SCHEMA = "repro.run_summary/1"

#: Leaf span name → attribution phase. Only leaf phases are listed, so
#: summing them never double-counts their ``iteration``/``sync`` parents.
#: ASP's blocking push/pull count as rs (they play RS's role). Barrier /
#: staleness / ICS-drain *waits* get their own phase: a wait is a symptom
#: of someone else's slowness (one straggler inflates every other worker's
#: barrier time), so regression attribution must keep it apart from the
#: phases where time is actively spent.
PHASE_GROUPS: dict[str, str] = {
    "compute": "compute",
    "rs_push": "rs",
    "rs_pull": "rs",
    "push": "rs",
    "pull": "rs",
    "ics_push": "ics",
    "ics_pull": "ics",
    "lgp_correction": "lgp",
    "pgp_compute": "pgp",
    "rs_barrier_wait": "wait",
    "staleness_wait": "wait",
    "ics_wait": "wait",
    "ics_stall": "wait",
}

PHASES: tuple[str, ...] = ("compute", "rs", "ics", "lgp", "pgp", "wait")

#: Phases that can *cause* a slowdown (waits only propagate one).
CAUSAL_PHASES: tuple[str, ...] = ("compute", "rs", "ics", "lgp", "pgp")


def _phase_times(tracer) -> tuple[dict[str, float], dict[int, dict[str, float]]]:
    """(cluster-wide, per-worker) seconds per phase from leaf spans."""
    total = {p: 0.0 for p in PHASES}
    per_worker: dict[int, dict[str, float]] = {}
    for span in getattr(tracer, "spans", []) or []:
        phase = PHASE_GROUPS.get(span.name)
        if phase is None or span.end is None:
            continue
        dur = span.end - span.start
        total[phase] += dur
        if span.worker is not None:
            per_worker.setdefault(span.worker, {p: 0.0 for p in PHASES})[
                phase
            ] += dur
    return total, per_worker


def run_summary(result, sampler=None) -> dict:
    """A JSON-able cross-run comparison document for one finished run."""
    if sampler is None:
        sampler = getattr(result, "sampler", None)
    tracer = getattr(result, "tracer", None)
    health = health_report(result, sampler)

    if tracer is not None:
        phases, worker_phases = _phase_times(tracer)
    else:
        # Untraced fallback: the recorder still splits compute vs sync, so
        # the sync side is attributed to rs (the blocking stage).
        phases = {p: 0.0 for p in PHASES}
        worker_phases = {}
        for rec in result.recorder.iterations:
            phases["compute"] += rec.compute_time
            phases["rs"] += rec.sync_time
            wp = worker_phases.setdefault(rec.worker, {p: 0.0 for p in PHASES})
            wp["compute"] += rec.compute_time
            wp["rs"] += rec.sync_time

    workers = {}
    for wh in health.workers:
        workers[str(wh.worker)] = {
            "phases": worker_phases.get(wh.worker, {p: 0.0 for p in PHASES}),
            "iterations": wh.iterations,
            "mean_compute": wh.mean_compute,
            "mean_sync": wh.mean_sync,
            "straggler_z": wh.straggler_z,
            "utilization": wh.utilization,
        }
    return {
        "schema": SUMMARY_SCHEMA,
        "sync": result.sync_name,
        "wall_time": float(result.wall_time),
        "iteration_end_time": float(result.iteration_end_time),
        "throughput": float(result.throughput),
        "mean_bst": float(result.mean_bst),
        "mean_bct": float(result.mean_bct),
        "iterations": len(result.recorder.iterations),
        "phases": phases,
        "workers": workers,
        "counters": dict(result.recorder.counters),
        "stragglers": health.stragglers,
    }


def save_summary(summary: dict, path: Union[str, Path]) -> Path:
    """Write a run summary as canonical (sorted-key) JSON and return the path."""
    path = Path(path)
    path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return path


def load_summary(path: Union[str, Path]) -> dict:
    """Read a run summary written by :func:`save_summary`, validating its schema."""
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, dict):
        raise ValueError(
            f"{path}: not a run summary (expected an object, got "
            f"{type(doc).__name__})"
        )
    if doc.get("schema") != SUMMARY_SCHEMA:
        raise ValueError(
            f"{path}: not a run summary (schema={doc.get('schema')!r}, "
            f"expected {SUMMARY_SCHEMA!r}) — write one with "
            "`repro run --summary` or `repro dash`"
        )
    return doc


@dataclass
class RegressionReport:
    """The diff of two run summaries, wall-delta attributed."""

    wall_a: float
    wall_b: float
    threshold: float
    #: phase → (seconds in A, seconds in B, delta)
    phases: dict[str, tuple[float, float, float]] = field(default_factory=dict)
    #: worker id → (*active* seconds in A, in B, delta) — waits excluded,
    #: so one straggler doesn't smear its delta across everyone's barriers
    workers: dict[int, tuple[float, float, float]] = field(default_factory=dict)
    dominant_phase: Optional[str] = None
    dominant_worker: Optional[int] = None

    @property
    def delta(self) -> float:
        return self.wall_b - self.wall_a

    @property
    def pct(self) -> float:
        return self.delta / self.wall_a if self.wall_a else 0.0

    @property
    def verdict(self) -> str:
        if self.pct > self.threshold:
            return "regression"
        if self.pct < -self.threshold:
            return "improvement"
        return "ok"

    def as_dict(self) -> dict:
        return {
            "wall_a": self.wall_a,
            "wall_b": self.wall_b,
            "delta": self.delta,
            "pct": self.pct,
            "threshold": self.threshold,
            "verdict": self.verdict,
            "dominant_phase": self.dominant_phase,
            "dominant_worker": self.dominant_worker,
            "phases": {
                p: {"a": a, "b": b, "delta": d}
                for p, (a, b, d) in self.phases.items()
            },
            "workers": {
                str(w): {"a": a, "b": b, "delta": d}
                for w, (a, b, d) in self.workers.items()
            },
        }

    def render(self) -> str:
        lines = [
            f"wall time     {self.wall_a:>10.3f}s -> {self.wall_b:>10.3f}s  "
            f"({self.pct:+.1%})  verdict: {self.verdict.upper()}",
            "",
            f"{'phase':<10} {'A (s)':>10} {'B (s)':>10} {'delta':>10}",
        ]
        for p, (a, b, d) in self.phases.items():
            mark = "  <- dominant" if p == self.dominant_phase else ""
            lines.append(f"{p:<10} {a:>10.3f} {b:>10.3f} {d:>+10.3f}{mark}")
        lines.append("")
        lines.append(
            f"{'worker':<10} {'A (s)':>10} {'B (s)':>10} {'delta':>10}"
            "   (active time, waits excluded)"
        )
        for w in sorted(self.workers):
            a, b, d = self.workers[w]
            mark = "  <- dominant" if w == self.dominant_worker else ""
            lines.append(f"{w:<10} {a:>10.3f} {b:>10.3f} {d:>+10.3f}{mark}")
        return "\n".join(lines)


def _comparable(doc: Union[dict, str, Path], name: str) -> dict:
    """``doc`` as a summary dict holding the fields :func:`compare_runs` reads."""
    if not isinstance(doc, dict):
        name, doc = str(doc), load_summary(doc)
    for field in ("wall_time", "phases"):
        if field not in doc:
            raise ValueError(f"{name}: run summary has no {field!r} field")
    wall = doc["wall_time"]
    if isinstance(wall, bool) or not isinstance(wall, (int, float)):
        raise ValueError(f"{name}: wall_time: expected a number, got {type(wall).__name__}")
    for field in ("phases", "workers"):
        value = doc.get(field, {})
        if not isinstance(value, dict):
            raise ValueError(
                f"{name}: {field}: expected an object, got {type(value).__name__}"
            )
    return doc


def compare_runs(
    a: Union[dict, str, Path], b: Union[dict, str, Path], max_slowdown: float = 0.05
) -> RegressionReport:
    """Diff two run summaries (dicts or paths) and attribute the delta.

    ``max_slowdown`` is the relative wall-clock growth tolerated before the
    verdict flips to ``regression`` (symmetric for ``improvement``).
    """
    a, b = _comparable(a, "A"), _comparable(b, "B")
    report = RegressionReport(
        wall_a=float(a["wall_time"]),
        wall_b=float(b["wall_time"]),
        threshold=float(max_slowdown),
    )
    for phase in PHASES:
        pa = float(a["phases"].get(phase, 0.0))
        pb = float(b["phases"].get(phase, 0.0))
        report.phases[phase] = (pa, pb, pb - pa)

    def active(doc: dict, wid: str) -> float:
        phases = doc.get("workers", {}).get(wid, {}).get("phases", {})
        return sum(float(phases.get(p, 0.0)) for p in CAUSAL_PHASES)

    ids = set(a.get("workers", {})) | set(b.get("workers", {}))
    for wid in sorted(ids, key=int):
        wa, wb = active(a, wid), active(b, wid)
        report.workers[int(wid)] = (wa, wb, wb - wa)

    # Dominant phase: the causal phase that moved most. The wait phase only
    # wins when nothing causal explains it (e.g. the PS itself got slower),
    # i.e. the wait delta dwarfs every active delta.
    causal_dom = max(CAUSAL_PHASES, key=lambda p: abs(report.phases[p][2]))
    wait_delta = report.phases.get("wait", (0.0, 0.0, 0.0))[2]
    if abs(report.phases[causal_dom][2]) >= 0.25 * abs(wait_delta):
        report.dominant_phase = causal_dom
    else:
        report.dominant_phase = "wait"
    if report.workers:
        report.dominant_worker = max(
            report.workers, key=lambda w: abs(report.workers[w][2])
        )
    return report


__all__ = [
    "CAUSAL_PHASES",
    "PHASES",
    "PHASE_GROUPS",
    "RegressionReport",
    "SUMMARY_SCHEMA",
    "compare_runs",
    "load_summary",
    "run_summary",
    "save_summary",
]
