"""Reporting for co-tenant runs: per-job table, interference attribution.

``multijob_summary`` is the schema-tagged JSON document that
``repro multirun --json`` prints; ``render_report`` is the human-readable
view the CLI prints without ``--json``.
"""

from __future__ import annotations

from repro.metrics.report import format_table
from repro.multijob.runner import MultiJobResult

MULTIJOB_SCHEMA = "repro.multijob_summary/1"


def _job_dict(run, placement_mode: str) -> dict:
    res = run.result
    return {
        "sync": res.sync_name,
        "hosts": list(run.placement.hosts),
        "placement_mode": placement_mode,
        "submitted": run.submitted,
        "admitted": run.admitted,
        "finished": run.finished,
        "queue_wait": run.queue_wait,
        "wall_time": run.wall_time,
        "throughput": res.throughput,
        "mean_bst": res.mean_bst,
        "mean_bct": res.mean_bct,
        "iterations": res.recorder.total_iterations,
        "job_bytes": run.job_bytes,
        "contended_bytes": run.contended_bytes,
        "solo_bytes": run.solo_bytes,
        "contended_share": run.contended_share,
        "active_seconds": run.active_seconds,
        "contended_seconds": run.contended_seconds,
        "counters": dict(res.recorder.counters),
    }


def multijob_summary(result: MultiJobResult) -> dict:
    """JSON-able snapshot of a co-tenant run (per-job + fabric-wide)."""
    return {
        "schema": MULTIJOB_SCHEMA,
        "wall_time": result.wall_time,
        "admission": result.admission,
        "placement": result.placement,
        "n_hosts": result.n_hosts,
        "slots_per_host": result.slots_per_host,
        "gpus_per_host": result.gpus_per_host,
        "jobs": {
            name: _job_dict(run, result.placement) for name, run in result.jobs.items()
        },
        "interference": result.interference_matrix(),
        "network": {
            k: v for k, v in sorted(result.network_stats.items())
        },
    }


def render_report(result: MultiJobResult) -> str:
    """Per-job table plus cross-job interference attribution."""
    rows = []
    for name, run in result.jobs.items():
        res = run.result
        rows.append(
            (
                name,
                res.sync_name,
                f"{run.queue_wait:.2f}",
                f"{run.wall_time:.2f}",
                f"{res.throughput:.1f}",
                f"{res.mean_bst * 1e3:.0f}",
                f"{run.job_bytes / 1e9:.2f}",
                f"{run.contended_share:.1%}",
            )
        )
    table = format_table(
        [
            "job",
            "sync",
            "queued (s)",
            "wall (s)",
            "samples/s",
            "BST (ms)",
            "GB moved",
            "contended",
        ],
        rows,
        title=(
            f"{len(result.jobs)} jobs · {result.placement} placement · "
            f"{result.admission} admission · {result.n_hosts} hosts"
        ),
    )
    lines = [table]
    matrix = result.interference_matrix()
    pairs = [
        (a, b, matrix[a][b])
        for i, a in enumerate(matrix)
        for b in list(matrix)[i + 1:]
        if matrix[a][b] > 0.0
    ]
    if pairs:
        lines.append("")
        lines.append("cross-job fabric overlap (seconds both tenants had flows):")
        for a, b, seconds in sorted(pairs, key=lambda p: -p[2]):
            lines.append(f"  {a} <-> {b}: {seconds:.2f}s")
    return "\n".join(lines)


__all__ = ["MULTIJOB_SCHEMA", "multijob_summary", "render_report"]
