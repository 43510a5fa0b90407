"""Microbenchmark harness for the numeric hot path (``repro perf``).

Times the operations the flat arena (:mod:`repro.nn.arena`) vectorizes —
PS weighted averaging, PGP importance, LGP correction, replica sync — with
the arena on vs off, plus end-to-end wall-clock on a numeric
``fig6b``-scale run and virtual-time references for traced/untraced timing
runs. Results are written as ``BENCH_hotpath.json`` (schema
``repro.perf.hotpath/v1``), the committed perf-regression baseline that
the tier-1 guard test validates.

Baselines are *re-measurable*: the dict path is selected with
``use_arena=False`` (``REPRO_FLAT_ARENA=0`` end to end), so the harness
always compares live code paths (which the parity tests pin bit-identical)
rather than stale numbers. The end-to-end baseline is the dict plane only;
the autograd kernels are the same code on both sides.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from contextlib import contextmanager
from typing import Callable, Optional

import numpy as np

BENCH_SCHEMA = "repro.perf.hotpath/v1"

#: Dotted paths that must exist in a valid BENCH_hotpath.json.
REQUIRED_FIELDS = (
    "schema",
    "card",
    "config.quick",
    "config.n_workers",
    "config.micro_card",
    "micro.ps_apply.dict_s",
    "micro.ps_apply.flat_s",
    "micro.ps_apply.speedup",
    "micro.pgp.dict_s",
    "micro.pgp.flat_s",
    "micro.pgp.speedup",
    "micro.ps_apply_pgp.speedup",
    "micro.lgp.dict_s",
    "micro.lgp.flat_s",
    "micro.lgp.speedup",
    "micro.sync_replica.dict_s",
    "micro.sync_replica.flat_s",
    "micro.sync_replica.speedup",
    "end_to_end.numeric.baseline_s",
    "end_to_end.numeric.optimized_s",
    "end_to_end.numeric.speedup",
    "end_to_end.numeric.reduction_pct",
    "end_to_end.numeric.identical",
    "end_to_end.timing.untraced_virtual_s",
    "end_to_end.timing.traced_virtual_s",
    "end_to_end.timing.virtual_match",
    "sweep.serial_s",
    "sweep.parallel_s",
    "sweep.jobs",
    "sweep.identical",
)

#: Speedup ratios the tier-1 guard requires to stay >= 1.0. The sweep
#: ratio is deliberately NOT guarded (it is hardware-dependent: on a
#: single-core runner fork overhead can exceed the win).
GUARDED_SPEEDUPS = (
    "micro.ps_apply.speedup",
    "micro.pgp.speedup",
    "micro.ps_apply_pgp.speedup",
    "micro.lgp.speedup",
    "micro.sync_replica.speedup",
    "end_to_end.numeric.speedup",
)


def get_path(data: dict, dotted: str):
    """Fetch ``data["a"]["b"]`` for ``"a.b"``; raises KeyError if absent."""
    node = data
    for part in dotted.split("."):
        node = node[part]
    return node


def validate_bench(data: dict, min_speedup: float = 1.0) -> list[str]:
    """Schema + regression check; returns a list of problems (empty = OK)."""
    problems: list[str] = []
    for field in REQUIRED_FIELDS:
        try:
            get_path(data, field)
        except (KeyError, TypeError):
            problems.append(f"missing field: {field}")
    if data.get("schema") != BENCH_SCHEMA:
        problems.append(
            f"schema mismatch: expected {BENCH_SCHEMA!r}, got {data.get('schema')!r}"
        )
    for field in GUARDED_SPEEDUPS:
        try:
            value = float(get_path(data, field))
        except (KeyError, TypeError, ValueError):
            continue  # already reported as missing
        if not value >= min_speedup:  # catches NaN too
            problems.append(
                f"regression: {field} = {value:.3f} < {min_speedup:.2f}"
            )
    for flag in ("end_to_end.numeric.identical", "sweep.identical"):
        try:
            if get_path(data, flag) is not True:
                problems.append(f"parity violation: {flag} is not true")
        except (KeyError, TypeError):
            pass
    return problems


# --------------------------------------------------------------- timing utils
def _best_of(fn: Callable[[], None], repeats: int = 3) -> float:
    """Minimum wall-clock of ``repeats`` runs (standard microbench practice:
    the min is the least noise-contaminated estimate)."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


@contextmanager
def _env(**overrides: Optional[str]):
    """Temporarily set/unset environment variables."""
    saved = {k: os.environ.get(k) for k in overrides}
    try:
        for k, v in overrides.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
        yield
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v


def _fingerprint(trainer, result) -> str:
    """Stable digest of a run's numeric outcome (params + loss trajectory +
    virtual clocks) — the bit-parity witness stored in the bench file."""
    h = hashlib.sha256()
    snap = trainer.ps.snapshot()
    for name in sorted(snap):
        h.update(name.encode())
        h.update(np.ascontiguousarray(snap[name]).tobytes())
    h.update(repr(result.wall_time).encode())
    h.update(repr(result.iteration_end_time).encode())
    h.update(repr(result.best_metric).encode())
    for rec in result.recorder.iterations:
        h.update(repr(rec.loss).encode())
    return h.hexdigest()


# --------------------------------------------------------------- micro benches
def _micro_setup(card_name: str, n_workers: int, seed: int, use_arena: bool):
    """One numeric engine + PS + per-worker gradients, arena on or off."""
    from repro.cluster.engines import NumericEngine
    from repro.cluster.spec import ClusterSpec, TrainingPlan
    from repro.harness.workloads import make_numeric_dataset
    from repro.nn.models.registry import get_card

    card = get_card(card_name)
    train, test = make_numeric_dataset(card, n_samples=400, seed=seed)
    spec = ClusterSpec(n_workers=n_workers)
    engine = NumericEngine(
        card, train, test, spec, batch_size=16, seed=seed, use_arena=use_arena
    )
    plan = TrainingPlan(n_epochs=1, lr=0.1, momentum=0.9)
    ps = engine.make_ps(plan)
    grads = [engine.compute(w, 0, 0)[0] for w in range(n_workers)]
    return engine, ps, grads


def _bench_variant(card_name: str, n_workers: int, seed: int, rounds: int,
                   use_arena: bool) -> dict[str, float]:
    """Per-op seconds for one path (dict or flat)."""
    from repro.core.gib import GIB
    from repro.core.lgp import LGPCorrector

    engine, ps, grads = _micro_setup(card_name, n_workers, seed, use_arena)

    counter = [0]

    def ps_apply():
        for _ in range(rounds):
            bucket = f"bench:{counter[0]}"
            counter[0] += 1
            for w in range(n_workers):
                ps.accumulate(bucket, w, grads[w])
            ps.apply_average(bucket)

    t_ps = _best_of(ps_apply)

    def pgp():
        for _ in range(rounds):
            engine.ps_layer_importance(ps)

    t_pgp = _best_of(pgp)

    # Half-model GIB: the realistic RS/ICS split for the LGP/sync benches.
    importance = engine.ps_layer_importance(ps)
    gib = GIB.from_importance(
        importance,
        engine.layer_bytes,
        budget_bytes=0.5 * engine.model_bytes,
        layers=engine.splitter.layers,
    )
    g_imp, g_unimp = engine.splitter.split(grads[0], gib)
    imp_names = engine.splitter.params_of(gib.important_layers)
    unimp_names = engine.splitter.params_of(gib.unimportant_layers)
    corrector = LGPCorrector(
        engine.worker_params(0), arena=engine.replica_arena(0)
    )

    def lgp():
        for _ in range(rounds):
            snap = ps.snapshot(imp_names, copy=False)
            corrector.apply_rs(snap, g_unimp, lr=0.1)
            corrector.apply_ics(ps.snapshot(unimp_names))

    t_lgp = _best_of(lgp)

    def sync():
        for _ in range(rounds):
            engine.sync_replica(0, ps)
            engine.sync_replica(1 % n_workers, ps, imp_names)

    t_sync = _best_of(sync)

    return {"ps_apply": t_ps, "pgp": t_pgp, "lgp": t_lgp, "sync_replica": t_sync}


def _micro_section(card_name: str, n_workers: int, seed: int, rounds: int) -> dict:
    dict_times = _bench_variant(card_name, n_workers, seed, rounds, use_arena=False)
    flat_times = _bench_variant(card_name, n_workers, seed, rounds, use_arena=True)
    out = {
        op: {
            "dict_s": dict_times[op],
            "flat_s": flat_times[op],
            "speedup": dict_times[op] / max(flat_times[op], 1e-12),
        }
        for op in dict_times
    }
    # The combined PS round: accumulate/average/apply plus the importance
    # pass that follows it on the PS (the two ops share one critical path).
    ps_pgp_dict = dict_times["ps_apply"] + dict_times["pgp"]
    ps_pgp_flat = flat_times["ps_apply"] + flat_times["pgp"]
    out["ps_apply_pgp"] = {
        "dict_s": ps_pgp_dict,
        "flat_s": ps_pgp_flat,
        "speedup": ps_pgp_dict / max(ps_pgp_flat, 1e-12),
    }
    return out


# --------------------------------------------------------------- end-to-end
def _e2e_numeric(
    card_name: str,
    n_workers: int,
    n_epochs: int,
    seed: int,
    n_samples: Optional[int] = None,
    sigma: float = 0.0,
    repeats: int = 2,
) -> dict:
    """fig6b-scale numeric OSP run: dict gradient plane
    (``REPRO_FLAT_ARENA=0``) vs the flat arena, wall-clock + parity. The
    autograd kernels are the same on both sides.

    Each variant is timed ``repeats`` times and the best (minimum) is kept —
    end-to-end runs are long enough that scheduler noise on a shared box
    otherwise dominates the comparison. The dataset is built once outside
    the timed region; the bit-parity fingerprints come from the first run
    of each variant (all runs of a variant are identical by construction).
    """
    from repro.core.osp import OSP
    from repro.harness.workloads import (
        WorkloadConfig,
        make_numeric_dataset,
        numeric_trainer,
    )

    cfg = WorkloadConfig(
        card_name, n_workers=n_workers, n_epochs=n_epochs, sigma=sigma, seed=seed
    )
    data = (
        make_numeric_dataset(cfg.card, n_samples=n_samples, seed=seed)
        if n_samples
        else None
    )

    def run():
        trainer = numeric_trainer(cfg, OSP(), data=data)
        t0 = time.perf_counter()
        res = trainer.run()
        return time.perf_counter() - t0, _fingerprint(trainer, res)

    def best_of(env: dict) -> tuple:
        times, fp = [], None
        for _ in range(max(1, repeats)):
            with _env(**env):
                t, run_fp = run()
            times.append(t)
            fp = fp or run_fp
        return min(times), fp

    base_s, base_fp = best_of({"REPRO_FLAT_ARENA": "0"})
    opt_s, opt_fp = best_of({"REPRO_FLAT_ARENA": None})
    return {
        "baseline_s": base_s,
        "optimized_s": opt_s,
        "speedup": base_s / max(opt_s, 1e-12),
        "reduction_pct": 100.0 * (1.0 - opt_s / max(base_s, 1e-12)),
        "identical": base_fp == opt_fp,
        "fingerprint": opt_fp,
        "epochs": n_epochs,
        "n_samples": n_samples,
        "sigma": sigma,
        "repeats": repeats,
    }


def _e2e_timing(card_name: str, n_workers: int, n_epochs: int, seed: int) -> dict:
    """Virtual-time reference: the same timing-mode OSP run, untraced and
    traced, must land on one virtual clock (tracing is passive)."""
    from repro.core.osp import OSP
    from repro.harness.workloads import WorkloadConfig, timing_trainer

    cfg = WorkloadConfig(card_name, n_workers=n_workers, n_epochs=n_epochs, seed=seed)

    trainer = timing_trainer(cfg, OSP())
    t0 = time.perf_counter()
    res_plain = trainer.run()
    host_untraced = time.perf_counter() - t0

    trainer = timing_trainer(cfg, OSP())
    trainer.enable_tracing()
    t0 = time.perf_counter()
    res_traced = trainer.run()
    host_traced = time.perf_counter() - t0

    return {
        "untraced_virtual_s": res_plain.wall_time,
        "traced_virtual_s": res_traced.wall_time,
        "virtual_match": repr(res_plain.wall_time) == repr(res_traced.wall_time),
        "untraced_host_s": host_untraced,
        "traced_host_s": host_traced,
        "epochs": n_epochs,
    }


def _sweep_section(jobs: int, quick: bool) -> dict:
    """Serial vs parallel sweep executor on a small bandwidth sweep; the
    point lists must be exactly equal (order and values)."""
    from repro.core.osp import OSP
    from repro.harness.sweep import sweep_bandwidth
    from repro.sync import BSP

    factories = (BSP, OSP)
    bandwidths = [1e9, 2e9] if quick else [0.5e9, 1e9, 2e9, 4e9]
    kwargs = dict(epochs=4 if quick else 10, ipe=4, n_workers=4)

    t0 = time.perf_counter()
    serial = sweep_bandwidth(factories, bandwidths, jobs=1, **kwargs)
    serial_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    parallel = sweep_bandwidth(factories, bandwidths, jobs=jobs, **kwargs)
    parallel_s = time.perf_counter() - t0
    return {
        "serial_s": serial_s,
        "parallel_s": parallel_s,
        "jobs": jobs,
        "points": len(serial),
        "identical": serial == parallel,
        "speedup": serial_s / max(parallel_s, 1e-12),
    }


def run_hotpath_bench(
    card_name: str = "resnet50-cifar10",
    quick: bool = False,
    jobs: Optional[int] = None,
    seed: int = 0,
    micro_card: str = "inceptionv3-cifar100",
) -> dict:
    """Run the full harness; returns the BENCH_hotpath.json payload.

    ``card_name`` drives the end-to-end run (fig6b's workload by default);
    ``micro_card`` drives the per-op microbenchmarks (inceptionv3 by
    default — its repeated block shapes make it representative of how the
    batched reductions behave on deep conv stacks; per-card numbers for
    all five evaluation workloads are in ``docs/performance.md``).
    """
    from repro.perf.executor import default_jobs

    if jobs is None:
        jobs = min(4, default_jobs())
    n_workers = 2 if quick else 4
    rounds = 5 if quick else 40
    timing_epochs = 4 if quick else 12
    # fig6b scale: 8 workers, sigma 0.3, 6000-sample dataset (the full
    # accuracy_experiment shape); quick mode shrinks the run, not the shape.
    e2e = dict(n_workers=8, sigma=0.3, n_samples=6000, n_epochs=3, repeats=2)
    if quick:
        e2e.update(n_samples=1200, n_epochs=1, repeats=1)
    out = {
        "schema": BENCH_SCHEMA,
        "card": card_name,
        "config": {
            "quick": quick,
            "n_workers": n_workers,
            "micro_rounds": rounds,
            "micro_card": micro_card,
            "seed": seed,
        },
        "micro": _micro_section(micro_card, n_workers, seed, rounds),
        "end_to_end": {
            "numeric": _e2e_numeric(card_name, seed=seed, **e2e),
            "timing": _e2e_timing(card_name, 8, timing_epochs, seed),
        },
        "sweep": _sweep_section(jobs, quick),
    }
    return out


def save_bench(data: dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


__all__ = [
    "BENCH_SCHEMA",
    "GUARDED_SPEEDUPS",
    "REQUIRED_FIELDS",
    "get_path",
    "run_hotpath_bench",
    "save_bench",
    "validate_bench",
]
