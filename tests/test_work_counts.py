"""Work is counted, not only timed: exact per-run counts of two bench shapes.

One run of the benchmark's ``t8_osp`` workload at its smoke size
(``resnet50-cifar10``, 8 workers, OSP, σ 0.1, 3 epochs × 4 iterations,
seed 3) pins, like a golden:

* the kernel's queue entries (``env._eid``) and the same entries by kind,
  classified by a wrapper around ``Environment.schedule`` in this test;
* ``ComputeModel`` constructions: T_c is computed once per run;
* GIB layer-tuple and RS/ICS byte-sum computations: once per GIB built and
  once per GIB adopted;
* the network's ``netsim.rerates``, ``netsim.fairshare_calls`` and
  ``netsim.rerate_skipped``;
* the network's own work, counted by wrappers in this test: flows the
  drains tested for completion, flows whose anchor moved or caught up with
  their cohort, and wake-up timers armed, cancelled and dispatched after a
  later one superseded them.

``t128_osp``'s smoke shape (``vgg16-cifar10``, 128 workers, OSP, σ 0.1,
1 epoch × 1 iteration, seed 3: a full incast into one PS downlink) pins the
entry total and the network counts.

``t8_obs``'s smoke shape (``t8_osp``'s, 2 epochs × 4 iterations, sampled,
traced and checked by the strict default monitors) pins what observing and
checking cost: spans, counter-track samples per gauge, sampler ticks and the
values they wrote, the kernel's ``MetricSampler.on_advance`` calls,
``Network.ledger()`` reads, and per drain monitor the drain-hook calls, its
checks and the active flows it walked.

``cotenant_pair``'s smoke shape (``osp_with_background`` on ``vgg16-cifar10``,
8 workers each, 2 epochs × 4 iterations, seed 3, on one shared fabric: the
priority solve's path) pins the kernel's entries by kind, the network's
rerates, solver calls, skipped rerates and preemptions, its flows, and the
per-job byte ledgers.

``sweep_bw``'s smoke shape (``sweep_bandwidth`` over BSP, ASP, SSP and OSP
at the bench's eight bandwidths, 1 epoch × 2 iterations, seed 3: 32 short
runs) pins what a run costs to build and run: the kernel's entries by kind,
the PCG64 jitter streams built, and the networks' rerates and solver calls.

A change that moves a count updates its pin and states old → new in
CHANGES.md. Counts do not depend on the host, so a creep below the timing
noise of a ``host_s`` claim still shows here.
"""

from collections import Counter
from functools import cached_property

import numpy as np
import pytest

from repro.check import InvariantChecker
from repro.cluster.engines import Engine
from repro.core.gib import GIB
from repro.core.osp import OSP
from repro.harness import (
    WorkloadConfig, osp_with_background, shared_fabric_runner, timing_trainer,
)  # fmt: skip
from repro.hardware.compute import ComputeModel
from repro.harness.sweep import sweep_bandwidth
from repro.netsim import Network
from repro.netsim.network import _Cohort
from repro.obs.timeseries import MetricSampler
from repro.simcore import NORMAL, Environment, Process, Timeout
from repro.sync import ASP, BSP, SSP

#: 3 epochs × 4 iterations × 8 workers.
WORKER_ITERATIONS = 3 * 4 * 8

PINNED_ENTRIES = {
    "timeout": 420,
    "delivery": 288,
    "defer": 116,
    "process_start": 32,
    "process_exit": 16,
    "relay": 0,
    "interrupt": 0,
    "succeed": 136,
}
#: The network's own work (wrappers below), the same keys for both shapes.
NETWORK_KEYS = (
    "drain_visits", "materialised", "timers_armed", "timers_cancelled",
    "timers_stale",
)  # fmt: skip
PINNED = {
    "eid": sum(PINNED_ENTRIES.values()),
    "compute_models": 1,
    "gib_tuples": 11,
    "gibs_adopted": 5,
    "byte_sums": 8,
    "netsim.rerates": 236,
    "netsim.fairshare_calls": 182,
    "netsim.rerate_skipped": 25,
    "drain_visits": 1202,
    "materialised": 666,
    "timers_armed": 204,
    "timers_cancelled": 84,
    "timers_stale": 0,
}
#: The trainer's recorder, in first-bump order: the network's mirrored
#: ``netsim.*`` counters arrive as they are first bumped, so OSP's own
#: ``osp.deadline_miss`` lands between two of them.
PINNED_RECORDER_KEYS = [
    "netsim.rerates", "netsim.rerate_skipped", "netsim.fairshare_calls",
    "netsim.prio_bytes.high", "netsim.prio_bytes.urgent", "netsim.prio_bytes.bulk",
    "osp.deadline_miss", "netsim.prio_preemptions",
]  # fmt: skip
#: ``t128_osp``'s smoke shape: one worker-iteration per worker.
PINNED_T128 = {
    "eid": 1284,
    "netsim.rerates": 258,
    "netsim.fairshare_calls": 255,
    "netsim.rerate_skipped": 2,
    "drain_visits": 752,
    "materialised": 719,
    "timers_armed": 256,
    "timers_cancelled": 127,
    "timers_stale": 0,
}


#: ``t8_obs``'s smoke shape: what the tracer, the sampler and the monitors did.
PINNED_T8_OBS = {
    "spans": 394,
    "gauge_samples": {
        "osp.u_max": 1, "osp.sgu_budget": 3, "osp.quorum_size": 8, "obs.ps.version": 8,
    },
    "sampler_ticks": 37,
    "on_advance_calls": 37,
    "sampler_values": 4186,
    # the probes share one reading of the fabric per tick, and one when built
    "ledger_calls": 38,
    "drain_hook_calls": {"net.conservation": 290, "osp.ics_inflight": 290},
    "checks": {"net.conservation": 291, "ps.ledger": 72, "osp.gib": 10, "osp.ics_inflight": 291},
    # active flows the monitors read inside their drain hooks
    "flows_walked": {"net.conservation": 0, "osp.ics_inflight": 0},
}


#: ``cotenant_pair``'s smoke shape: an OSP job and a BULK BSP tenant.
PINNED_COTENANT_ENTRIES = {
    "timeout": 517,
    "delivery": 272,
    "defer": 138,
    "process_start": 18,
    "process_exit": 18,
    "relay": 0,
    "interrupt": 0,
    "succeed": 275,
}
PINNED_COTENANT = {
    "netsim.rerates": 277,
    "netsim.fairshare_calls": 230,
    "netsim.rerate_skipped": 43,
    "netsim.prio_preemptions": 0,
    "flows": 272,
    "netsim.job_bytes.osp": 70839062560.0,
    "netsim.job_contended_bytes.osp": 51302223199.17335,
    "netsim.job_bytes.bulk": 70839062528.0,
    "netsim.job_contended_bytes.bulk": 46874781791.17336,
}


#: ``sweep_bw``'s smoke shape: 32 runs of 8 workers × 1 × 2 iterations.
SWEEP_BANDWIDTHS = tuple(g * 1e9 for g in (0.25, 0.5, 1, 1.25, 2, 4, 8, 16))
PINNED_SWEEP_ENTRIES = {
    "timeout": 2380,
    "delivery": 1024,
    "defer": 808,
    "process_start": 256,
    "process_exit": 256,
    "relay": 0,
    "interrupt": 0,
    "succeed": 704,
}
PINNED_SWEEP = {
    "runs": 32,
    "networks": 32,
    "pcg64_streams": 256,
    "netsim.rerates": 1600,
    "netsim.fairshare_calls": 924,
    "netsim.rerate_skipped": 432,
}


def _entry_kind(event) -> str:
    """What put ``event`` on the queue, read at the moment it is scheduled."""
    if isinstance(event, Timeout):
        return "timeout"
    if isinstance(event, Process):
        return "process_exit"
    if not event.triggered:  # Environment.deliver queues before settling
        return "delivery"
    first = event.callbacks[0] if event.callbacks else None
    owner = getattr(first, "__self__", None)
    if isinstance(owner, Process) and owner._target is not event:
        # the kernel's own entries for a process: its bootstrap before the
        # first step, an interrupt, or a relay for an already-processed event
        if first.__func__ is Process._resume_interrupt:
            return "interrupt"
        return "process_start" if owner._target is None else "relay"
    return "succeed"


def _counting(func, counter: Counter, key: str):
    def wrapper(*args, **kwargs):
        counter[key] += 1
        return func(*args, **kwargs)

    return wrapper


def _count_network(mp: pytest.MonkeyPatch, seen: Counter) -> None:
    """The network's own work. A drain tests for completion every active
    flow, except that of a cohort's members only those in the band its keys
    point to; a flow is materialised when a new rate moves its anchor to
    the current instant or when it replays cohort steps; each rerate that
    leaves flows active arms one wake-up timer and cancels the one it
    supersedes; a timer dispatched after a later one superseded it is
    stale."""
    collect, candidates = Network._collect, Network._candidates
    write_back = Network._write_back
    rerate, on_timer = Network._rerate, Network._on_timer
    sync = _Cohort.sync
    cancel = Environment.cancel
    draining = []

    def counted_collect(self, now):
        draining.append(True)
        try:
            collect(self, now)
        finally:
            draining.pop()

    def counted_candidates(self, now):
        flows = candidates(self, now)
        if draining:
            seen["drain_visits"] += len(flows)
        return flows

    def counted_sync(self, flow):
        if flow.base < len(self.steps):
            seen["materialised"] += 1
        sync(self, flow)

    def counted_write_back(self, rates, *args):
        now = self.env.now
        for fid, rate in rates.items():
            flow = self._active[fid]
            if rate != flow.rate and flow.t_anchor != now:
                seen["materialised"] += 1
        write_back(self, rates, *args)

    def counted_rerate(self):
        before = self._timer
        rerate(self)
        if self._timer is not None and self._timer is not before:
            seen["timers_armed"] += 1

    def counted_on_timer(self, timer):
        if timer is not self._timer:
            seen["timers_stale"] += 1
        on_timer(self, timer)

    def counted_cancel(self, event):
        seen["timers_cancelled"] += 1
        cancel(self, event)

    mp.setattr(Network, "_collect", counted_collect)
    mp.setattr(Network, "_candidates", counted_candidates)
    mp.setattr(_Cohort, "sync", counted_sync)
    mp.setattr(Network, "_write_back", counted_write_back)
    mp.setattr(Network, "_rerate", counted_rerate)
    mp.setattr(Network, "_on_timer", counted_on_timer)
    mp.setattr(Environment, "cancel", counted_cancel)


def _network_counts(trainer, seen: Counter) -> dict:
    stats = trainer.network.stats
    return {
        "eid": trainer.env._eid,
        **{k: stats.get(k, 0) for k in ("netsim.rerates", "netsim.fairshare_calls",
                                         "netsim.rerate_skipped")},
        **{k: seen[k] for k in NETWORK_KEYS},
    }  # fmt: skip


def _count_entries(mp: pytest.MonkeyPatch, entries: Counter) -> None:
    """Every queue entry by kind: ``Environment.schedule`` is the only way
    in, and an entry scheduled inside ``Environment.defer`` is a defer."""
    schedule, defer = Environment.schedule, Environment.defer
    deferring = []

    def counted_schedule(self, event, delay=0.0, priority=NORMAL):
        entries["defer" if deferring else _entry_kind(event)] += 1
        return schedule(self, event, delay, priority)

    def counted_defer(self, fn):
        deferring.append(True)
        try:
            return defer(self, fn)
        finally:
            deferring.pop()

    mp.setattr(Environment, "schedule", counted_schedule)
    mp.setattr(Environment, "defer", counted_defer)


@pytest.fixture(scope="module")
def counts():
    mp = pytest.MonkeyPatch()
    seen: Counter = Counter()
    entries: Counter = Counter()
    _count_entries(mp, entries)
    mp.setattr(
        ComputeModel, "__post_init__",
        _counting(ComputeModel.__post_init__, seen, "compute_models"),
    )  # fmt: skip
    for name in ("important_layers", "unimportant_layers"):
        prop = cached_property(_counting(GIB.__dict__[name].func, seen, "gib_tuples"))
        prop.__set_name__(GIB, name)
        mp.setattr(GIB, name, prop)
    mp.setattr(
        Engine, "bytes_of_layers", _counting(Engine.bytes_of_layers, seen, "byte_sums")
    )
    _count_network(mp, seen)
    adopted: list[GIB] = []
    on_round_close = OSP.on_round_close

    def counted_round_close(self, ctx, iteration, n_deposits):
        if not adopted:
            adopted.append(self.current_gib)  # Algorithm 1's first bitmap
        on_round_close(self, ctx, iteration, n_deposits)
        if adopted[-1] is not self.current_gib:
            adopted.append(self.current_gib)

    mp.setattr(OSP, "on_round_close", counted_round_close)
    try:
        cfg = WorkloadConfig(
            "resnet50-cifar10", n_workers=8, n_epochs=3, iterations_per_epoch=4,
            sigma=0.1, seed=3,
        )  # fmt: skip
        trainer = timing_trainer(cfg, OSP())
        trainer.run()
    finally:
        mp.undo()
    return {
        "entries": dict(entries),
        "compute_models": seen["compute_models"],
        "gib_tuples": seen["gib_tuples"],
        "gibs_adopted": len(adopted),
        "byte_sums": seen["byte_sums"],
        **_network_counts(trainer, seen),
        "recorder": dict(trainer.recorder.counters),
        "stats": dict(trainer.network.stats),
    }


@pytest.fixture(scope="module")
def counts_t128():
    mp = pytest.MonkeyPatch()
    seen: Counter = Counter()
    _count_network(mp, seen)
    try:
        cfg = WorkloadConfig(
            "vgg16-cifar10", n_workers=128, n_epochs=1, iterations_per_epoch=1,
            sigma=0.1, seed=3,
        )  # fmt: skip
        trainer = timing_trainer(cfg, OSP())
        trainer.run()
    finally:
        mp.undo()
    return _network_counts(trainer, seen)


@pytest.fixture(scope="module")
def counts_t8_obs():
    mp = pytest.MonkeyPatch()
    seen: Counter = Counter()
    hook_calls: Counter = Counter()
    walked: Counter = Counter()
    in_hook: list[str] = []
    ledger, active_flows = Network.ledger, Network.active_flows

    def counted_active_flows(self):
        flows = active_flows.fget(self)
        if in_hook:
            walked[in_hook[-1]] += len(flows)
        return flows

    def counting_hook(name, hook):
        def wrapper():
            hook_calls[name] += 1
            in_hook.append(name)
            try:
                hook()
            finally:
                in_hook.pop()

        return wrapper

    mp.setattr(Network, "ledger", _counting(ledger, seen, "ledger_calls"))
    mp.setattr(
        MetricSampler, "on_advance",
        _counting(MetricSampler.on_advance, seen, "on_advance_calls"),
    )  # fmt: skip
    mp.setattr(Network, "active_flows", property(counted_active_flows))
    try:
        cfg = WorkloadConfig(
            "resnet50-cifar10", n_workers=8, n_epochs=2, iterations_per_epoch=4,
            sigma=0.1, seed=3,
        )  # fmt: skip
        trainer = timing_trainer(cfg, OSP())
        sampler = trainer.enable_sampling()
        checker = InvariantChecker(trainer)
        hooks = trainer.network.drain_hooks
        hooks[:] = [counting_hook(h.__self__.name, h) for h in hooks]
        trainer.run()
        report = checker.finish()
    finally:
        mp.undo()
    tracer = trainer.env.tracer
    series = sampler.series
    return {
        "spans": len(tracer.spans),
        "gauge_samples": {name: len(samples) for name, samples in tracer.counters.items()},
        "sampler_ticks": sampler.samples_taken,
        "sampler_values": sum(len(s) + s.dropped for s in series.values()),
        "on_advance_calls": seen["on_advance_calls"],
        "ledger_calls": seen["ledger_calls"],
        "drain_hook_calls": dict(hook_calls),
        "checks": {name: checks for name, (checks, _v) in report.monitors.items()},
        "flows_walked": {name: walked[name] for name in hook_calls},
    }


@pytest.fixture(scope="module")
def counts_cotenant():
    mp = pytest.MonkeyPatch()
    entries: Counter = Counter()
    _count_entries(mp, entries)
    try:
        jobs = osp_with_background(
            "vgg16-cifar10", n_workers=8, n_epochs=2, iterations_per_epoch=4, seed=3
        )
        runner = shared_fabric_runner(jobs)
        runner.run()
    finally:
        mp.undo()
    net = runner.network
    counted = ("netsim.rerates", "netsim.fairshare_calls", "netsim.rerate_skipped",
               "netsim.prio_preemptions")  # fmt: skip
    return {
        "entries": dict(entries),
        **{k: net.stats[k] for k in counted},
        "flows": len(net.records),
        **{k: v for k, v in net.stats.items() if k.startswith("netsim.job_")},
    }


@pytest.fixture(scope="module")
def counts_sweep():
    mp = pytest.MonkeyPatch()
    entries: Counter = Counter()
    seen: Counter = Counter()
    _count_entries(mp, entries)
    pcg64 = np.random.PCG64
    mp.setattr(np.random, "PCG64", _counting(pcg64, seen, "pcg64_streams"))
    networks: list[Network] = []
    network_init = Network.__init__

    def collected_init(self, *args, **kwargs):
        networks.append(self)
        network_init(self, *args, **kwargs)

    mp.setattr(Network, "__init__", collected_init)
    try:
        points = sweep_bandwidth(
            (BSP, ASP, SSP, OSP), SWEEP_BANDWIDTHS, epochs=1, ipe=2, seed=3
        )
    finally:
        mp.undo()
    return {
        "entries": dict(entries),
        "runs": len(points),
        "networks": len(networks),
        "pcg64_streams": seen["pcg64_streams"],
        **{
            key: sum(net.stats.get(key, 0) for net in networks)
            for key in ("netsim.rerates", "netsim.fairshare_calls", "netsim.rerate_skipped")
        },
    }


def test_kernel_entries_by_kind(counts):
    entries = {kind: counts["entries"].get(kind, 0) for kind in PINNED_ENTRIES}
    assert entries == PINNED_ENTRIES
    assert set(counts["entries"]) <= set(PINNED_ENTRIES)
    assert sum(counts["entries"].values()) == counts["eid"]


@pytest.mark.parametrize("name", sorted(PINNED))
def test_work_count_is_pinned(counts, name):
    assert counts[name] == PINNED[name], (
        f"{name}: {PINNED[name]} -> {counts[name]} per run of "
        f"{WORKER_ITERATIONS} worker-iterations; update the pin and state it "
        "old -> new in CHANGES.md"
    )


@pytest.mark.parametrize("name", sorted(PINNED_T128))
def test_t128_work_count_is_pinned(counts_t128, name):
    assert counts_t128[name] == PINNED_T128[name], (
        f"{name}: {PINNED_T128[name]} -> {counts_t128[name]} per t128_osp smoke "
        "run; update the pin and state it old -> new in CHANGES.md"
    )


@pytest.mark.parametrize("name", sorted(PINNED_T8_OBS))
def test_t8_obs_work_count_is_pinned(counts_t8_obs, name):
    assert counts_t8_obs[name] == PINNED_T8_OBS[name], (
        f"{name}: {PINNED_T8_OBS[name]} -> {counts_t8_obs[name]} per t8_obs smoke "
        "run; update the pin and state it old -> new in CHANGES.md"
    )


def test_cotenant_entries_by_kind(counts_cotenant):
    entries = counts_cotenant["entries"]
    assert {kind: entries.get(kind, 0) for kind in PINNED_COTENANT_ENTRIES} == (
        PINNED_COTENANT_ENTRIES
    )
    assert set(entries) <= set(PINNED_COTENANT_ENTRIES)


def test_cotenant_keeps_exactly_the_pinned_job_ledgers(counts_cotenant):
    jobs = {k for k in counts_cotenant if k.startswith("netsim.job_")}
    assert jobs == {k for k in PINNED_COTENANT if k.startswith("netsim.job_")}


@pytest.mark.parametrize("name", sorted(PINNED_COTENANT))
def test_cotenant_work_count_is_pinned(counts_cotenant, name):
    assert counts_cotenant[name] == PINNED_COTENANT[name], (
        f"{name}: {PINNED_COTENANT[name]} -> {counts_cotenant[name]} per "
        "cotenant_pair smoke run; update the pin and state it old -> new in "
        "CHANGES.md"
    )


def test_sweep_entries_by_kind(counts_sweep):
    entries = {kind: counts_sweep["entries"].get(kind, 0) for kind in PINNED_SWEEP_ENTRIES}
    assert entries == PINNED_SWEEP_ENTRIES
    assert set(counts_sweep["entries"]) <= set(PINNED_SWEEP_ENTRIES)


@pytest.mark.parametrize("name", sorted(PINNED_SWEEP))
def test_sweep_work_count_is_pinned(counts_sweep, name):
    assert counts_sweep[name] == PINNED_SWEEP[name], (
        f"{name}: {PINNED_SWEEP[name]} -> {counts_sweep[name]} per sweep_bw smoke "
        "run; update the pin and state it old -> new in CHANGES.md"
    )


def test_recorder_mirrors_netsim_in_first_bump_order(counts):
    recorder = counts["recorder"]
    assert list(recorder) == PINNED_RECORDER_KEYS
    for name, value in counts["stats"].items():
        assert recorder.get(name, 0) == value, name


def test_the_split_is_computed_once_per_gib(counts):
    # The RS and ICS byte sums of a bitmap, once per bitmap the workers
    # split under (the last round close may adopt one nobody uses).
    assert counts["byte_sums"] <= 2 * counts["gibs_adopted"]
