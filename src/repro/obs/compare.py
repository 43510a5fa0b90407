"""Cross-run regression diffing: phase/worker attribution and verdicts.

:func:`compare_runs` diffs two unified traces (the document
:func:`~repro.obs.chrome.trace_document` builds, or a file that
:func:`~repro.obs.chrome.read_trace` loads) and attributes the wall-clock
delta to the phase and the worker that moved most — turning "run B is 12%
slower" into "worker 2's compute grew 9.3s inside the straggler window".
The per-phase seconds (compute / rs / ics / lgp / pgp / wait) are summed
from the trace's span events, cluster-wide and per worker; the wall clock
is the trace's ``otherData.wallTime``.

The verdict (``ok`` / ``improvement`` / ``regression``) is a relative
wall-clock slowdown against ``max_slowdown``, so CI can gate on
``repro report --compare A.json B.json`` directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

from repro.obs.chrome import read_trace

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


def _phase_times(doc: dict) -> tuple[dict[str, float], dict[int, dict[str, float]]]:
    """(cluster-wide, per-worker) seconds per phase from a trace's leaf
    span events (network flows are not spans)."""
    total = {p: 0.0 for p in PHASES}
    per_worker: dict[int, dict[str, float]] = {}
    for ev in doc["traceEvents"]:
        if ev.get("ph") != "X" or ev.get("pid") == "network":
            continue
        phase = PHASE_GROUPS.get(ev.get("name"))
        if phase is None:
            continue
        dur = ev.get("dur", 0.0) / 1e6
        total[phase] += dur
        worker = ev.get("args", {}).get("worker")
        if worker is not None:
            per_worker.setdefault(worker, {p: 0.0 for p in PHASES})[phase] += dur
    return total, per_worker


def wall_time(doc: dict, source: str) -> float:
    """The run's wall clock from a unified trace's ``otherData.wallTime``;
    ``source`` names the trace (its file) in the refusal."""
    wall = doc.get("otherData", {}).get("wallTime")
    if wall is None:
        raise ValueError(
            f"{source}: otherData.wallTime is missing, so the trace cannot be "
            "compared (write it again with `repro run --trace FILE`)"
        )
    return float(wall)


@dataclass
class RegressionReport:
    """The diff of two runs' traces, wall-delta attributed."""

    wall_a: float
    wall_b: float
    threshold: float
    #: phase → (seconds in A, seconds in B, delta)
    phases: dict[str, tuple[float, float, float]] = (
        field(default_factory=dict, init=False)
    )
    #: worker id → (*active* seconds in A, in B, delta) — waits excluded,
    #: so one straggler doesn't smear its delta across everyone's barriers
    workers: dict[int, tuple[float, float, float]] = (
        field(default_factory=dict, init=False)
    )
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


def compare_runs(
    a: Union[dict, str, Path], b: Union[dict, str, Path], max_slowdown: float = 0.05
) -> RegressionReport:
    """Diff two unified traces (documents or paths) and attribute the delta.

    ``max_slowdown`` is the relative wall-clock growth tolerated before the
    verdict flips to ``regression`` (symmetric for ``improvement``); it must
    be a finite number >= 0. A trace without its wall clock is refused
    naming its file, or ``trace a`` / ``trace b`` for a document.
    """
    if not 0 <= max_slowdown < math.inf:
        raise ValueError(
            f"max_slowdown must be a finite number >= 0, got {max_slowdown!r}"
        )
    source_a = "trace a" if isinstance(a, dict) else str(a)
    source_b = "trace b" if isinstance(b, dict) else str(b)
    a, b = (doc if isinstance(doc, dict) else read_trace(doc) for doc in (a, b))
    report = RegressionReport(
        wall_a=wall_time(a, source_a),
        wall_b=wall_time(b, source_b),
        threshold=float(max_slowdown),
    )
    (phases_a, workers_a), (phases_b, workers_b) = _phase_times(a), _phase_times(b)
    for phase in PHASES:
        pa, pb = phases_a[phase], phases_b[phase]
        report.phases[phase] = (pa, pb, pb - pa)

    def active(workers: dict, wid: int) -> float:
        phases = workers.get(wid, {})
        return sum(phases.get(p, 0.0) for p in CAUSAL_PHASES)

    for wid in sorted(set(workers_a) | set(workers_b)):
        wa, wb = active(workers_a, wid), active(workers_b, wid)
        report.workers[wid] = (wa, wb, wb - wa)

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
    "compare_runs",
    "wall_time",
]
