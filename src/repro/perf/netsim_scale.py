"""Netsim scaling benchmark (``repro perf-net``).

Measures the discrete-event network core's host-time cost on an OSP-shaped
star workload — per-worker WFBP-style layer bursts into the PS, full-model
pulls back, staggered workers, and a mid-run bandwidth-dip fault window
exercising ``refresh_capacities`` — swept from 4 to 128 workers under the
legacy one-rerate-per-event path (``REPRO_FAIRSHARE=legacy``) and the fast
path (coalesced rerates + decoupled-delta skipping + heap fair-share).
Every sweep point records a virtual-time fingerprint (flow records + final
clock) for both modes; ``identical`` certifies the fast path changed host
time only.

An end-to-end section runs a real timing-mode OSP training job under both
modes and compares the full numeric fingerprint *and* the differential
replay stream digest — the same witnesses ``repro check`` uses.

Results are written as ``BENCH_netsim.json`` (schema
``repro.perf.netsim/v1``), the committed scaling baseline that
``tests/perf/test_bench_netsim_guard.py`` validates: all ``identical``
flags true and at least :data:`MIN_SPEEDUP_64` at 64 workers.
"""

from __future__ import annotations

import hashlib
import json
import time
from typing import Callable, Optional

from repro.perf.hotpath import _best_of, _env, _fingerprint, get_path

BENCH_SCHEMA = "repro.perf.netsim/v1"

#: Minimum fast-vs-legacy host-time speedup required at 64 workers.
MIN_SPEEDUP_64 = 5.0

#: Dotted paths that must exist in a valid BENCH_netsim.json. Only the
#: guarded 64-worker point is required by schema; other sweep points are
#: informational (the full sweep reaches 128, quick mode stops at 64).
REQUIRED_FIELDS = (
    "schema",
    "config.quick",
    "config.layers",
    "config.iterations",
    "config.workers",
    "sweep.64.legacy_s",
    "sweep.64.fast_s",
    "sweep.64.speedup",
    "sweep.64.identical",
    "sweep.64.legacy_rerates",
    "sweep.64.fast_rerates",
    "sweep.64.fast_rerate_skipped",
    "end_to_end.legacy_host_s",
    "end_to_end.fast_host_s",
    "end_to_end.speedup",
    "end_to_end.identical",
    "end_to_end.fingerprint",
    "end_to_end.stream_digest",
)

#: Speedup ratios the guard requires to stay >= MIN_SPEEDUP_64. Only the
#: 64-worker point is guarded: small sweep points measure setup overhead
#: more than scheduler work, and 128 is absent in quick mode.
GUARDED_SPEEDUPS = ("sweep.64.speedup",)


def validate_bench(data: dict, min_speedup: float = MIN_SPEEDUP_64) -> list[str]:
    """Schema + identity + regression check; returns problems (empty = OK)."""
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
    sweep = data.get("sweep")
    if isinstance(sweep, dict):
        for n, entry in sweep.items():
            if not (isinstance(entry, dict) and entry.get("identical") is True):
                problems.append(
                    f"parity violation: sweep.{n}.identical is not true"
                )
    try:
        if get_path(data, "end_to_end.identical") is not True:
            problems.append("parity violation: end_to_end.identical is not true")
    except (KeyError, TypeError):
        pass
    return problems


# ------------------------------------------------------------- the workload
def _run_scale_workload(
    n_workers: int, layers: int, iterations: int
) -> tuple[str, dict[str, int]]:
    """One deterministic OSP-shaped netsim run; returns (fingerprint, stats).

    Traffic pattern per worker and iteration: a compute gap, then all
    ``layers`` gradient pushes started in the *same instant* (WFBP bursts —
    what rerate coalescing batches), then a full-model pull after the burst
    lands. Workers start staggered so bursts interleave rather than align.
    A fault process halves the PS downlink and two worker uplinks mid-run
    and reverts them, driving ``refresh_capacities`` through both windows.
    """
    from repro.netsim.links import LinkSpec
    from repro.netsim.network import Network
    from repro.netsim.topology import StarTopology
    from repro.simcore.environment import Environment

    env = Environment()
    topo = StarTopology(
        n_workers + 1, default_spec=LinkSpec(bandwidth=1.25e9, latency=5e-4)
    )
    net = Network(env, topo)
    ps = n_workers
    layer_bytes = [2_000_000.0 * (1.0 + (l % 3)) for l in range(layers)]
    model_bytes = float(sum(layer_bytes))

    def worker(w: int):
        yield env.timeout(w * 2e-4)
        for it in range(iterations):
            yield env.timeout(1e-3)
            pushes = [
                net.transfer(w, ps, layer_bytes[l], tag=("push", w, it, l))
                for l in range(layers)
            ]
            yield env.all_of(pushes)
            yield net.transfer(ps, w, model_bytes, tag=("pull", w, it))

    procs = [env.process(worker(w)) for w in range(n_workers)]

    def fault_window():
        dipped = [
            l
            for l in topo.links
            if l.name in (f"down:{ps}", "up:0", "up:1")
        ]
        yield env.timeout(0.04)
        for link in dipped:
            link.apply_fault(bandwidth_factor=0.5)
        net.refresh_capacities()
        yield env.timeout(0.08)
        for link in dipped:
            link.clear_fault(bandwidth_factor=0.5)
        net.refresh_capacities()

    env.process(fault_window())
    env.run(env.all_of(procs))

    h = hashlib.sha256()
    for r in net.records:
        h.update(
            repr(
                (r.fid, r.src, r.dst, r.size, r.tag, r.start_time, r.end_time)
            ).encode()
        )
    h.update(repr(env.now).encode())
    return h.hexdigest(), dict(net.stats)


def _timed_mode(
    mode: Optional[str],
    n_workers: int,
    layers: int,
    iterations: int,
    repeats: int,
) -> tuple[float, str, dict[str, int]]:
    """Best-of-N host time for one solver mode; fingerprint from run 1."""
    fp_stats: list = []

    def once():
        result = _run_scale_workload(n_workers, layers, iterations)
        if not fp_stats:
            fp_stats.append(result)

    with _env(REPRO_FAIRSHARE=mode):
        best = _best_of(once, repeats)
    fingerprint, stats = fp_stats[0]
    return best, fingerprint, stats


def _sweep_section(
    worker_counts, layers: int, iterations: int, repeats: int
) -> dict:
    sweep: dict[str, dict] = {}
    for n in worker_counts:
        legacy_s, legacy_fp, legacy_stats = _timed_mode(
            "legacy", n, layers, iterations, repeats
        )
        fast_s, fast_fp, fast_stats = _timed_mode(
            None, n, layers, iterations, repeats
        )
        sweep[str(n)] = {
            "legacy_s": legacy_s,
            "fast_s": fast_s,
            "speedup": legacy_s / max(fast_s, 1e-12),
            "identical": legacy_fp == fast_fp,
            "fingerprint": fast_fp,
            "legacy_rerates": legacy_stats["netsim.rerates"],
            "legacy_fairshare_calls": legacy_stats["netsim.fairshare_calls"],
            "fast_rerates": fast_stats["netsim.rerates"],
            "fast_fairshare_calls": fast_stats["netsim.fairshare_calls"],
            "fast_rerate_skipped": fast_stats["netsim.rerate_skipped"],
        }
    return sweep


# ------------------------------------------------------------- end-to-end
def _e2e_section(
    card_name: str, n_workers: int, n_epochs: int, seed: int
) -> dict:
    """Real timing-mode OSP run under both modes: host time + the full
    identity battery (numeric fingerprint, replay-stream digest, virtual
    clock repr)."""
    from repro.check.replay import capture_stream
    from repro.core.osp import OSP
    from repro.harness.workloads import WorkloadConfig, timing_trainer

    def run():
        cfg = WorkloadConfig(
            card_name, n_workers=n_workers, n_epochs=n_epochs, seed=seed
        )
        trainer = timing_trainer(cfg, OSP())
        t0 = time.perf_counter()
        res = trainer.run()
        host = time.perf_counter() - t0
        digest = hashlib.sha256(
            "\n".join(map(repr, capture_stream(trainer, res))).encode()
        ).hexdigest()
        return host, _fingerprint(trainer, res), digest, res.wall_time

    with _env(REPRO_FAIRSHARE="legacy"):
        legacy_host, legacy_fp, legacy_digest, legacy_vt = run()
    with _env(REPRO_FAIRSHARE=None):
        fast_host, fast_fp, fast_digest, fast_vt = run()

    return {
        "card": card_name,
        "workers": n_workers,
        "epochs": n_epochs,
        "legacy_host_s": legacy_host,
        "fast_host_s": fast_host,
        "speedup": legacy_host / max(fast_host, 1e-12),
        "virtual_s": fast_vt,
        "identical": (
            legacy_fp == fast_fp
            and legacy_digest == fast_digest
            and repr(legacy_vt) == repr(fast_vt)
        ),
        "fingerprint": fast_fp,
        "stream_digest": fast_digest,
    }


# ------------------------------------------------------------------ driver
def run_netsim_bench(
    quick: bool = False,
    repeats: Optional[int] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> dict:
    """Run the full netsim scaling benchmark; returns the BENCH dict."""
    say = progress or (lambda _msg: None)
    worker_counts = (4, 8, 16, 32, 64) if quick else (4, 8, 16, 32, 64, 128)
    layers = 24  # ResNet/BERT-scale WFBP burst width
    iterations = 1 if quick else 2
    if repeats is None:
        repeats = 1 if quick else 2

    say(f"sweep: {len(worker_counts)} worker counts, both solver modes")
    sweep = _sweep_section(worker_counts, layers, iterations, repeats)
    say("end-to-end: timing-mode OSP run under both modes")
    e2e = _e2e_section(
        "vgg16-cifar10",
        n_workers=8,
        n_epochs=2 if quick else 4,
        seed=7,
    )
    return {
        "schema": BENCH_SCHEMA,
        "config": {
            "quick": quick,
            "layers": layers,
            "iterations": iterations,
            "repeats": repeats,
            "workers": list(worker_counts),
        },
        "sweep": sweep,
        "end_to_end": e2e,
    }


def save_bench(data: dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


__all__ = [
    "BENCH_SCHEMA",
    "GUARDED_SPEEDUPS",
    "MIN_SPEEDUP_64",
    "REQUIRED_FIELDS",
    "run_netsim_bench",
    "save_bench",
    "validate_bench",
]
