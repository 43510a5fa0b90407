"""Layer drivers: direct, untraced calls into one layer's public functions.

Each driver times a loop of calls into a single layer and reports the
median of :data:`REPEATS` loops, every loop at least :data:`MIN_LOOP_S`
long. They answer "did this layer get faster" without the rest of the
simulator in the way; whether that moved anything a user sees is what the
end-to-end workloads say (``README.md`` has the layer -> workload table).
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from typing import Callable

REPEATS = 5
MIN_LOOP_S = 0.1

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _per_call_s(fn: Callable[[], object], repeats: int, min_loop_s: float) -> float:
    """Median over ``repeats`` loops of seconds per ``fn()`` call."""
    fn()  # warm-up
    samples = []
    for _ in range(repeats):
        calls = 0
        t0 = time.perf_counter()
        while True:
            fn()
            calls += 1
            dt = time.perf_counter() - t0
            if dt >= min_loop_s:
                break
        samples.append(dt / calls)
    return statistics.median(samples)


# ------------------------------------------------------------------ simcore
def _kernel(n_procs: int, n_yields: int) -> Callable[[], None]:
    from repro.simcore import Environment

    def ticker(env, period):
        for _ in range(n_yields):
            yield env.timeout(period)

    def once():
        env = Environment()
        procs = [env.process(ticker(env, 1.0 + 0.01 * i)) for i in range(n_procs)]
        env.run(until=env.all_of(procs))

    return once


# ------------------------------------------------------------------- netsim
def _incast(n: int):
    """N senders into one receiver on a star: N uplinks, one shared downlink."""
    routes = {i: (f"up{i}", "down") for i in range(n)}
    caps = {f"up{i}": 1.25e9 for i in range(n)}
    caps["down"] = 1.25e9
    return routes, caps


def _solver(n: int) -> Callable[[], object]:
    from repro.netsim import fair_rates

    routes, caps = _incast(n)
    return lambda: fair_rates(routes, caps)


def _prio_solver(n: int) -> Callable[[], object]:
    from repro.netsim import PRIO_BULK, PRIO_HIGH, PRIO_NORMAL, prio_fair_rates

    routes, caps = _incast(n)
    classes = (PRIO_HIGH, PRIO_NORMAL, PRIO_BULK)
    prios = {i: classes[i % 3] for i in range(n)}
    return lambda: prio_fair_rates(routes, caps, prios)


def _flows(senders: int, burst: int, rounds: int) -> Callable[[], None]:
    from repro.netsim import LinkSpec, Network, StarTopology
    from repro.simcore import Environment

    def sender(env, net, src, dst):
        for _ in range(rounds):
            yield env.all_of([net.transfer(src, dst, 4e6) for _ in range(burst)])

    def once():
        env = Environment()
        net = Network(env, StarTopology(senders + 1, default_spec=LinkSpec()))
        procs = [env.process(sender(env, net, s, senders)) for s in range(senders)]
        env.run(until=env.all_of(procs))

    return once


# ------------------------------------------------- cluster / core / autograd
def _numeric_trainer(seed: int):
    """A built (un-run) fig-6b-shaped numeric trainer: its engine and PS are
    what the PS-round, PGP and forward/backward drivers call into."""
    from workloads import WORKLOADS

    wl = WORKLOADS["numeric_fig6b"]
    size = wl.size(smoke=True)
    return wl.build(wl.prepare(seed, size), seed, size)


def _ps_round(trainer) -> Callable[[], None]:
    engine, ps = trainer.engine, trainer.ps
    n = trainer.spec.n_workers
    grads = [engine.compute(w, 0, 0)[0] for w in range(n)]

    def once():
        for w in range(n):
            ps.accumulate("round", w, grads[w])
        ps.apply_average("round")

    return once


def _span() -> Callable[[], None]:
    from repro.obs import Tracer
    from repro.simcore import Environment

    tracer = Tracer(Environment())

    def once():
        # 1000 spans per call keeps loop overhead out; a fresh list bounds memory.
        tracer.spans.clear()
        for _ in range(1000):
            tracer.end(tracer.begin("phase", "w0"))

    return once


# ------------------------------------------------------------ perf executor
def _short_timing_run(seed: int) -> float:
    from repro.core.osp import OSP
    from repro.harness import WorkloadConfig, timing_trainer

    cfg = WorkloadConfig(
        "resnet50-cifar10", n_workers=8, n_epochs=4, iterations_per_epoch=4, seed=seed
    )
    return timing_trainer(cfg, OSP()).run().wall_time


def _executor_speedup(seed: int, n_tasks: int, repeats: int) -> float:
    """Serial seconds / parallel seconds for ``n_tasks`` short timing runs."""
    from repro.perf.executor import parallel_map

    jobs = min(2, os.cpu_count() or 1)
    tasks = [seed + i for i in range(n_tasks)]

    def seconds(j: int) -> float:
        t0 = time.perf_counter()
        parallel_map(_short_timing_run, tasks, jobs=j, seed_base=seed)
        return time.perf_counter() - t0

    seconds(1)  # warm-up
    serial = statistics.median(seconds(1) for _ in range(repeats))
    parallel = statistics.median(seconds(jobs) for _ in range(repeats))
    return serial / parallel


# ---------------------------------------------------------------------- cli
def _wall_s(argv: list[str], repeats: int) -> float:
    """Median wall seconds of a fresh ``python <argv>`` with ``src`` importable."""
    env = dict(os.environ, PYTHONPATH=SRC)
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, *argv], env=env, check=True, stdout=subprocess.DEVNULL, timeout=60
        )
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def run_layer_drivers(seed: int, smoke: bool = False) -> dict:
    """Run every driver once; returns ``{"layers": {metric: value}}``."""
    repeats, min_loop_s = (1, 0.01) if smoke else (REPEATS, MIN_LOOP_S)
    procs, yields = (8, 200) if smoke else (64, 2000)
    senders, burst, rounds = (4, 6, 2) if smoke else (32, 24, 10)

    def per_call(fn):
        return _per_call_s(fn, repeats, min_loop_s)

    trainer = _numeric_trainer(seed)
    ps_round = _ps_round(trainer)
    out = {
        "simcore.kernel_us_per_event": 1e6 * per_call(_kernel(procs, yields)) / (procs * yields),
        "netsim.solver_us_n8": 1e6 * per_call(_solver(8)),
        "netsim.solver_us_n128": 1e6 * per_call(_solver(128)),
        "netsim.prio_solver_us_n128": 1e6 * per_call(_prio_solver(128)),
        "netsim.flow_us_n32": 1e6 * per_call(_flows(senders, burst, rounds))
        / (senders * burst * rounds),
        "cluster.ps_round_us": 1e6 * per_call(ps_round),
        # After a PS round last_aggregated is populated, which is what PGP reads.
        "core.pgp_us": 1e6 * per_call(lambda: trainer.engine.ps_layer_importance(trainer.ps)),
        "autograd.fwd_bwd_ms": 1e3 * per_call(lambda: trainer.engine.compute(0, 0, 0)),
        "obs.span_us": 1e6 * per_call(_span()) / 1000,
        "perf.executor_speedup": _executor_speedup(seed, 4 if smoke else 8, 1 if smoke else 3),
        "cli.import_s": _wall_s(["-c", "import repro.cli"], 1 if smoke else 3),
        "cli.run_wall_s": _wall_s(
            ["-m", "repro", "run", "--sync", "osp", "--workers", "8", "--json"],
            1 if smoke else 3,
        ),
    }
    return {"layers": out}
