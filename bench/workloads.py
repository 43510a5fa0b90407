"""The six benchmark workloads: what is built, what is timed, what is checked.

Every workload is a few functions over public ``repro`` constructors only:

* ``prepare(seed, size)`` — inputs shared by every op of a run (the
  synthetic dataset of the numeric workload); part of set-up.
* ``build(inputs, seed, size)`` — a fresh trainer/runner, untimed.
* ``run(subject)`` — the timed op: the public entry a user calls.
* ``inspect(subject, raw, size)`` — untimed: the :class:`Outcome` the
  output checks and the exact-equality ledger rows are made from.

Shapes (card, workers, sync model, sigma) are fixed (``README.md`` says why
each was chosen); lengths are cut so one op is about a second of host time and a 10-second
run holds seven or more of them — the median of many short ops is steadier
on a shared 2-core box than the median of three long ones.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import astuple, dataclass, field
from functools import partial
from typing import Any, Callable

#: Bandwidth grid of ``sweep_bw`` in bytes/second (0.25 .. 16 GB/s).
SWEEP_BANDWIDTHS = tuple(g * 1e9 for g in (0.25, 0.5, 1, 1.25, 2, 4, 8, 16))
#: Grid points where the paper's Fig. 6a ordering (OSP >= BSP) is checked.
ORDERING_BANDWIDTHS = (1e9, 1.25e9)

NETSIM_COUNTS = (
    "netsim.rerates",
    "netsim.rerate_skipped",
    "netsim.fairshare_calls",
    "netsim.prio_preemptions",
)


@dataclass
class Outcome:
    """What one op produced, reduced to comparable values."""

    digest: str
    iterations: int  # worker-iterations the run recorded
    planned: int  # worker-iterations the plan asked for
    model: dict[str, float]  # simulated outputs (virtual time, not host time)
    counts: dict[str, int] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)  # workload-specific failed checks

    def failed_checks(self, reference: "Outcome") -> list[str]:
        """Every output check this op fails, given the warm-up's outcome."""
        problems = list(self.problems)
        if self.iterations != self.planned:
            problems.append(f"recorded {self.iterations} iterations, planned {self.planned}")
        if self.digest != reference.digest:
            problems.append(f"digest {self.digest[:16]} != warm-up {reference.digest[:16]}")
        return problems


def _no_inputs(seed: int, size: dict) -> None:
    return None


def _run(subject):
    return subject.run()


@dataclass(frozen=True)
class Workload:
    name: str
    full: dict[str, int]
    smoke: dict[str, int]
    build: Callable[[Any, int, dict], Any]
    inspect: Callable[[Any, Any, dict], Outcome]
    run: Callable[[Any], Any] = _run
    prepare: Callable[[int, dict], Any] = _no_inputs
    #: What the op's host time is bound by, i.e. which calibration kernel
    #: tracks the machine's speed for it: the interpreter, or BLAS/memory.
    bound_by: str = "python"

    def size(self, smoke: bool) -> dict[str, int]:
        return self.smoke if smoke else self.full


def _network_counts(network) -> dict[str, int]:
    counts = {name: int(network.stats[name]) for name in NETSIM_COUNTS}
    counts["netsim.flows"] = len(network.records)
    return counts


def _trainer_outcome(trainer, result, size: dict, **counts: int) -> Outcome:
    from repro.check import capture_stream, stream_digest

    rec = result.recorder
    return Outcome(
        digest=stream_digest(capture_stream(trainer, result)),
        iterations=rec.total_iterations,
        planned=trainer.spec.n_workers * size["epochs"] * trainer.iterations_per_epoch,
        model={
            "model.virtual_s": result.wall_time,
            "model.throughput_sps": result.throughput,
            "model.bst_p90_s": rec.bst_percentile(90),
        },
        counts={**_network_counts(trainer.network), **counts},
    )


# ---------------------------------------------------------------- timing OSP
def _osp_timing_trainer(card: str, n_workers: int, seed: int, size: dict, sigma: float = 0.1):
    from repro.core.osp import OSP
    from repro.harness import WorkloadConfig, timing_trainer

    if n_workers <= 64:
        cfg = WorkloadConfig(
            card,
            n_workers=n_workers,
            n_epochs=size["epochs"],
            iterations_per_epoch=size["ipe"],
            sigma=sigma,
            seed=seed,
        )
        return timing_trainer(cfg, OSP())
    # WorkloadConfig builds LognormalJitter with its default 64 streams and
    # crashes past 64 workers (README "Known issues"); build the same triple
    # timing_trainer would, with enough streams.
    from repro.cluster.engines import TimingEngine
    from repro.cluster.spec import ClusterSpec, TrainingPlan
    from repro.cluster.trainer import DistributedTrainer
    from repro.hardware.jitter import LognormalJitter
    from repro.nn.models.registry import get_card

    total = size["epochs"] * size["ipe"]
    spec = ClusterSpec(
        n_workers=n_workers,
        jitter=LognormalJitter(sigma=sigma, seed=seed, n_workers=n_workers),
    )
    plan = TrainingPlan(n_epochs=size["epochs"], iterations_per_epoch=size["ipe"], seed=seed)
    engine = TimingEngine(
        get_card(card), spec, total_iterations=total, seed=seed, tau=max(1.0, total / 6.0)
    )
    return DistributedTrainer(spec, plan, engine, OSP())


def _build_t8(inputs, seed, size):
    return _osp_timing_trainer("resnet50-cifar10", 8, seed, size)


def _build_t128(inputs, seed, size):
    return _osp_timing_trainer("vgg16-cifar10", 128, seed, size)


# ------------------------------------------------------------------- numeric
def _prepare_numeric(seed, size):
    from repro.harness import make_numeric_dataset
    from repro.nn.models.registry import get_card

    return make_numeric_dataset(get_card("resnet50-cifar10"), n_samples=size["samples"], seed=seed)


def _build_numeric(data, seed, size):
    from repro.core.osp import OSP
    from repro.harness import WorkloadConfig, numeric_trainer

    cfg = WorkloadConfig(
        "resnet50-cifar10", n_workers=8, n_epochs=size["epochs"], sigma=0.3, seed=seed
    )
    return numeric_trainer(cfg, OSP(), data=data, batch_size=size["batch"])


def _inspect_numeric(trainer, result, size) -> Outcome:
    out = _trainer_outcome(trainer, result, size)
    losses = [e.train_loss for e in result.recorder.epochs]
    if len(losses) < 2 or not math.isfinite(losses[-1]) or not losses[-1] < losses[0]:
        out.problems.append(f"train loss did not fall: {losses}")
    return out


# ---------------------------------------------------------------- co-tenancy
def _build_cotenant(inputs, seed, size):
    from repro.harness import osp_with_background, shared_fabric_runner

    jobs = osp_with_background(
        "vgg16-cifar10",
        n_workers=8,
        n_epochs=size["epochs"],
        iterations_per_epoch=size["ipe"],
        seed=seed,
    )
    return shared_fabric_runner(jobs)


def _inspect_cotenant(runner, multi, size) -> Outcome:
    from repro.check import capture_stream, stream_digest

    per_job = {
        name: stream_digest(capture_stream(run.result.context, run.result))
        for name, run in multi.jobs.items()
    }
    fg = multi.jobs["osp"].result
    return Outcome(
        digest=";".join(f"{name}={d}" for name, d in per_job.items()),
        iterations=sum(r.result.recorder.total_iterations for r in multi.jobs.values()),
        planned=len(multi.jobs) * 8 * size["epochs"] * size["ipe"],
        # The latency-sensitive OSP tenant is the one the scenario protects.
        model={
            "model.virtual_s": multi.wall_time,
            "model.throughput_sps": fg.throughput,
            "model.bst_p90_s": fg.recorder.bst_percentile(90),
        },
        counts=_network_counts(runner.network),
    )


# ------------------------------------------------------- observed + checked
def _build_obs(inputs, seed, size):
    trainer = _build_t8(inputs, seed, size)
    trainer.enable_sampling()  # implies tracing
    return trainer


def _run_obs(trainer):
    from repro.check import run_checked

    return run_checked(trainer)  # strict, default monitors


def _inspect_obs(trainer, raw, size) -> Outcome:
    result, report = raw
    out = _trainer_outcome(
        trainer,
        result,
        size,
        **{
            "obs.spans": len(result.tracer.spans),
            "obs.samples": result.sampler.samples_taken,
            "check.violations": len(report.violations),
        },
    )
    if report.violations:
        out.problems.append(f"{len(report.violations)} invariant violations")
    return out


# --------------------------------------------------------------------- sweep
def _build_sweep(inputs, seed, size):
    from repro.core.osp import OSP
    from repro.harness.sweep import sweep_bandwidth
    from repro.sync import ASP, BSP, SSP

    # jobs is left at the function's own default on purpose: if the
    # executor default ever changes, this workload is where it shows.
    return partial(
        sweep_bandwidth,
        (BSP, ASP, SSP, OSP),
        SWEEP_BANDWIDTHS,
        epochs=size["epochs"],
        ipe=size["ipe"],
        seed=seed,
    )


def _run_sweep(sweep):
    return sweep()


def _inspect_sweep(sweep, points, size) -> Outcome:
    from repro.nn.models.registry import get_card

    per_run = 8 * size["epochs"] * size["ipe"]
    samples = per_run * get_card("resnet50-cifar10").batch_size
    thr = {(p.sync, p.value): p.throughput for p in points}
    out = Outcome(
        digest=hashlib.sha256(repr([astuple(p) for p in points]).encode()).hexdigest(),
        # SweepPoint carries no iteration count; distinct grid points stand in.
        iterations=len(thr) * per_run,
        planned=4 * len(SWEEP_BANDWIDTHS) * per_run,
        model={
            "model.virtual_s": sum(samples / p.throughput for p in points),
            "model.throughput_sps": thr.get(("osp", 1.25e9), math.nan),
            "model.bst_p90_s": sorted(p.mean_bst for p in points)[int(0.9 * (len(points) - 1))],
        },
    )
    for b in ORDERING_BANDWIDTHS:
        if not thr.get(("osp", b), 0.0) >= thr.get(("bsp", b), math.inf):
            out.problems.append(f"OSP throughput below BSP at {b / 1e9:g} GB/s")
    return out


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "t8_osp",
            full={"epochs": 40, "ipe": 8},
            smoke={"epochs": 3, "ipe": 4},
            build=_build_t8,
            inspect=_trainer_outcome,
        ),
        Workload(
            "t128_osp",
            full={"epochs": 2, "ipe": 8},
            smoke={"epochs": 1, "ipe": 1},
            build=_build_t128,
            inspect=_trainer_outcome,
        ),
        Workload(
            "numeric_fig6b",
            full={"samples": 800, "batch": 25, "epochs": 2},
            smoke={"samples": 600, "batch": 25, "epochs": 2},
            prepare=_prepare_numeric,
            build=_build_numeric,
            inspect=_inspect_numeric,
            bound_by="numpy",
        ),
        Workload(
            "cotenant_pair",
            full={"epochs": 20, "ipe": 8},
            smoke={"epochs": 2, "ipe": 4},
            build=_build_cotenant,
            inspect=_inspect_cotenant,
        ),
        Workload(
            "t8_obs",
            full={"epochs": 10, "ipe": 8},
            smoke={"epochs": 2, "ipe": 4},
            build=_build_obs,
            run=_run_obs,
            inspect=_inspect_obs,
        ),
        Workload(
            "sweep_bw",
            full={"epochs": 3, "ipe": 6},
            smoke={"epochs": 1, "ipe": 2},
            build=_build_sweep,
            run=_run_sweep,
            inspect=_inspect_sweep,
        ),
    )
}
