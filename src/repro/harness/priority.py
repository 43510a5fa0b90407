"""Priority-scheduling experiments: what class scheduling buys OSP's RS stage.

Two contention scenarios, each run on a plainly fair-shared fabric
(``network.priorities = False``) and on the class-scheduled one (the
default). The measured quantity is the per-(worker, iteration) RS-stage
wait — rs_push + rs_barrier_wait + rs_pull span durations, the
synchronization cost the paper's 2-stage design puts on the critical path.
With priorities on, RS traffic (HIGH) and the GIB bitmap broadcast
(URGENT) starve BULK traffic for the duration of each RS stage, so the
stage runs at near-uncontended speed.

All waits are *virtual* seconds, so the off/on ratios are deterministic
for a given config. ``benchmarks/bench_netprio.py`` and
``benchmarks/bench_multijob.py`` print the dicts;
``tests/harness/test_priority.py`` asserts on the quick runs.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.osp import OSP
from repro.harness.cotenancy import osp_with_background, shared_fabric_runner
from repro.harness.workloads import WorkloadConfig, timing_trainer
from repro.netsim.traffic import constant_background_load


def rs_stage_waits(tracer, job: Optional[str] = None) -> np.ndarray:
    """Sorted RS-stage wait per (worker, iteration), optionally one job's."""
    stage: dict[tuple, float] = {}
    for s in tracer.spans_named("rs_push", "rs_barrier_wait", "rs_pull"):
        if job is not None and s.job != job:
            continue
        key = (s.worker, s.iteration)
        stage[key] = stage.get(key, 0.0) + s.duration
    return np.array(sorted(stage.values()))


def _rs_row(waits: np.ndarray, stats: dict) -> dict:
    return {
        "rs_stage_p90_s": float(np.percentile(waits, 90)),
        "rs_stage_p50_s": float(np.percentile(waits, 50)),
        "preemptions": int(stats["netsim.prio_preemptions"]),
        "prio_bytes": {
            cls: float(stats[f"netsim.prio_bytes.{cls}"])
            for cls in ("urgent", "high", "normal", "bulk")
        },
    }


def _off_on(run) -> dict:
    off, on = run(False), run(True)
    return {
        "off": off,
        "on": on,
        "improvement": off["rs_stage_p90_s"] / on["rs_stage_p90_s"],
    }


def rs_under_bulk_tenants(quick: bool = True) -> dict:
    """OSP's RS stage while BULK tenants load every worker↔PS path.

    Background tenants (``constant_background_load``) occupy 80% of every
    worker→PS *and* PS→worker path, so on the fair-shared fabric both the
    RS push and the RS pull share their links with cross-traffic.
    """
    n_workers = 4
    cfg = WorkloadConfig(
        "resnet50-cifar10",
        n_workers=n_workers,
        n_epochs=2 if quick else 4,
        iterations_per_epoch=6,
        seed=7,
    )

    def run(priorities: bool) -> dict:
        trainer = timing_trainer(cfg, OSP())
        trainer.network.priorities = priorities
        tracer = trainer.enable_tracing()
        ps = trainer.spec.ps_node
        for w in range(n_workers):
            for src, dst in ((w, ps), (ps, w)):
                trainer.env.process(
                    constant_background_load(
                        trainer.env,
                        trainer.network,
                        src=src,
                        dst=dst,
                        load_fraction=0.8,
                        chunk_seconds=0.05,
                        # comfortably beyond the run's virtual end
                        until=600.0,
                    )
                )
        res = trainer.run()
        row = _rs_row(rs_stage_waits(tracer), trainer.network.stats)
        pushes = [s.duration for s in tracer.spans_named("rs_push")]
        row["rs_push_p90_s"] = float(np.percentile(pushes, 90))
        row["throughput"] = res.throughput
        row["virtual_s"] = res.wall_time
        return row

    return _off_on(run)


def osp_beside_bulk_cotenant(quick: bool = True) -> dict:
    """An OSP tenant's RS stage while a BULK BSP tenant shares its hosts.

    ``osp_with_background`` on a ``shared_fabric_runner``: with the fabric
    fair-shared the OSP RS stage splits its links with the background
    tenant's pushes; class-scheduled, it preempts them.
    """

    def run(priorities: bool) -> dict:
        jobs = osp_with_background(
            card_name="vgg16-cifar10",
            n_workers=4,
            n_epochs=2 if quick else 4,
            iterations_per_epoch=6,
            seed=7,
        )
        runner = shared_fabric_runner(jobs)
        runner.network.priorities = priorities
        tracer = runner.enable_tracing()
        result = runner.run()
        osp, bulk = result["osp"], result["bulk"]
        row = _rs_row(rs_stage_waits(tracer, job="osp"), result.network_stats)
        row["osp_wall_s"] = osp.wall_time
        row["bulk_wall_s"] = bulk.wall_time
        row["osp_contended_share"] = osp.contended_share
        return row

    return _off_on(run)


__all__ = ["osp_beside_bulk_cotenant", "rs_stage_waits", "rs_under_bulk_tenants"]
