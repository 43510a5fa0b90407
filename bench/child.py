"""The measured process: one workload, one fresh interpreter.

``run.py`` spawns this file once per workload and pass, with BLAS pinned to
one thread and malloc keeping its heap. It builds the inputs from ``--seed``,
runs a closed loop of one client (warm-up op, then timed ops back to back,
each on a freshly built trainer whose construction is outside the timed
region), checks every op's output, and prints one JSON document as the last
line of stdout.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

#: An op that runs longer than this is a failed op and ends the run.
OP_TIMEOUT_S = 120
#: Timed ops per run, whatever ``--seconds`` says.
MIN_OPS = 3
#: Passes of the calibration kernel per sample; a sample is their median.
CALIBRATION_PASSES = 3
#: CPU seconds of one pass of the two calibration kernels on the reference box
#: in its fast state. An op's CPU seconds are scaled by reference / (mean of
#: the kernel samples taken right before and right after it): the sandbox
#: switches between a fast state and one 30-40% slower for seconds to minutes
#: at a time, and this takes that out (README "Machine speed").
CALIBRATION_REFERENCE_S = {"python": 0.026, "numpy": 0.037}


class OpTimeout(Exception):
    pass


def cpu_seconds() -> float:
    """CPU seconds (user + system) of this process and of the children it
    has waited for. Unlike wall time it leaves out the time the process was
    not running: stolen by the hypervisor or given to a neighbour."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def make_calibrator(kind: str):
    """A fixed ~30 ms kernel of the kind of work a workload is bound by (an
    event loop in the interpreter, or a convolution in numpy); returns a
    function that gives the CPU seconds of the median of a few passes of it."""
    if kind == "python":
        import heapq

        def kernel():
            # What the simulator does all day: pop the earliest (time, seq,
            # who) off a heap, account for it, push its successor.
            heap, busy = [(0.01 * who, who, who) for who in range(32)], {}
            for seq in range(32, 60_000):
                now, _, who = heapq.heappop(heap)
                busy[who & 7] = busy.get(who & 7, 0.0) + now
                heapq.heappush(heap, (now + 1.0 + (who * 7 + seq * 13) % 11 * 0.01, seq, who))

    else:
        import numpy as np

        # One 3x3 convolution layer forward and backward, the way the numeric
        # engine spends its time: index gather into an im2col matrix larger
        # than a core's cache, BLAS contractions, elementwise and reduction
        # passes, bincount scatter-add. A cache-resident matmul speeds up and
        # slows down with the machine half as much again as the numeric op does.
        n, c, hw, c_out = 16, 16, 28, 32
        rng = np.random.default_rng(0)
        x = rng.standard_normal((n, c, hw + 2, hw + 2))
        w = rng.standard_normal((c_out, c * 9))
        k, i, j = np.meshgrid(np.arange(c), np.arange(3), np.arange(3), indexing="ij")
        pi, pj = np.divmod(np.arange(hw * hw), hw)
        k, i, j = k.reshape(-1, 1), i.reshape(-1, 1), j.reshape(-1, 1)
        flat = (k * (hw + 2) + i + pi) * (hw + 2) + j + pj  # (c*9, hw*hw), one image
        index = flat[None, :, :] + (np.arange(n) * x[0].size)[:, None, None]

        def kernel():
            cols = np.take(x.ravel(), index)
            y = w @ cols
            np.maximum(y, 0, out=y)
            g = y - y.mean(axis=(0, 2), keepdims=True)
            g /= np.sqrt(g.var(axis=(0, 2), keepdims=True) + 1e-5)
            np.einsum("nop,nfp->of", g, cols)
            dcols = w.T @ g
            np.bincount(index.ravel(), weights=dcols.ravel(), minlength=x.size)

    def sample() -> float:
        # Collector off: a collection here would walk the last op's objects
        # and charge the kernel for the size of the workload's heap.
        gc.disable()
        try:
            passes = []
            for _ in range(CALIBRATION_PASSES):
                c0 = cpu_seconds()
                kernel()
                passes.append(cpu_seconds() - c0)
        finally:
            gc.enable()
        return sorted(passes)[len(passes) // 2]

    kernel()  # the first pass pays for cold caches
    return sample


def _setup_seconds(spawned_at: float) -> dict:
    """Set-up: wall seconds since the parent spawned this process, and the
    process's CPU seconds so far scaled to the reference machine speed."""
    wall_s, cpu_s = time.monotonic() - spawned_at, cpu_seconds()
    speed = make_calibrator("python")()
    return {
        "setup_wall_s": wall_s,
        "setup_cpu_s": cpu_s,
        "setup_norm_s": cpu_s * CALIBRATION_REFERENCE_S["python"] / speed,
    }


def _on_alarm(signum, frame):
    raise OpTimeout(f"op exceeded {OP_TIMEOUT_S} s")


def _timed_op(wl, subject):
    """Run the timed op under the op timeout; returns (raw result, wall
    seconds, CPU seconds)."""
    signal.alarm(OP_TIMEOUT_S)
    try:
        gc.collect()
        t0, c0 = time.perf_counter(), cpu_seconds()
        raw = wl.run(subject)
        return raw, time.perf_counter() - t0, cpu_seconds() - c0
    finally:
        signal.alarm(0)


def measure(
    wl,
    seed: int,
    seconds: float,
    smoke: bool = False,
    traced: bool = False,
    spawned_at: float | None = None,
    perturb_op: int | None = None,
) -> dict:
    """Closed-loop measurement of one workload; returns the child document.

    ``perturb_op`` builds that timed op (0-based) from ``seed + 1`` — the
    self-test that the determinism check reports a diverging op as failed.
    """
    from ledger import SpanLog, layer_ledger, profiled

    signal.signal(signal.SIGALRM, _on_alarm)
    size = wl.size(smoke)
    log = SpanLog(wl.name)
    doc: dict = {"workload": wl.name, "seed": seed, "size": size, "problems": []}

    with log.span(f"workload:{wl.name}"):
        with log.span("dataset"):
            inputs = wl.prepare(seed, size)
        with log.span("build"):
            subject = wl.build(inputs, seed, size)
        if spawned_at is not None:
            doc.update(_setup_seconds(spawned_at))

        # Warm-up op: fills lazy caches (index tables, route interning) and
        # fixes the reference outcome every later op must reproduce.
        raw, doc["cold_run_s"], _ = _timed_op(wl, subject)
        reference = wl.inspect(subject, raw, size)
        doc["problems"] += [f"warm-up: {p}" for p in reference.failed_checks(reference)]

        calibrate = make_calibrator(wl.bound_by)
        reference_s = CALIBRATION_REFERENCE_S[wl.bound_by]
        op_s: list[float] = []  # wall seconds, as measured
        op_cpu_s: list[float] = []  # CPU seconds, as measured
        op_norm_s: list[float] = []  # CPU seconds scaled to the reference machine speed
        attempted = failed = 0
        deadline = time.monotonic() + (seconds / 2 if traced else seconds)
        after = calibrate()
        cal_s = [after]  # kernel samples: before the first op, then after every good op
        while attempted < MIN_OPS or time.monotonic() < deadline:
            op_seed = seed + 1 if attempted == perturb_op else seed
            attempted += 1
            subject = raw = None  # the previous trainer is garbage before timing
            try:
                subject = wl.build(inputs, op_seed, size)
                before = after
                raw, wall, cpu = _timed_op(wl, subject)
                after = calibrate()
                problems = wl.inspect(subject, raw, size).failed_checks(reference)
            except OpTimeout as exc:
                doc["problems"].append(f"op {attempted}: {exc}")
                failed += 1
                break
            except Exception as exc:  # a crashed op is a failed op, not a crashed run
                problems = [f"{type(exc).__name__}: {exc}"]
            if problems:
                failed += 1
                doc["problems"] += [f"op {attempted}: {p}" for p in problems]
            else:
                op_s.append(wall)
                op_cpu_s.append(cpu)
                op_norm_s.append(cpu * reference_s / ((before + after) / 2))
                cal_s.append(after)

        if traced:
            attempted += 1
            subject = raw = None
            with log.span("build"):
                subject = wl.build(inputs, seed, size)
            gc.collect()
            with log.span("run") as run_span:
                raw, stats = profiled(lambda: wl.run(subject))
            with log.span("digest"):
                problems = wl.inspect(subject, raw, size).failed_checks(reference)
            if problems:
                failed += 1
                doc["problems"] += [f"traced op: {p}" for p in problems]
            import repro

            doc["traced"] = {
                "run_s": run_span["end_s"] - run_span["start_s"],
                "ledger": layer_ledger(stats, os.path.dirname(repro.__file__)),
            }

    doc.update(
        op_s=op_s,
        op_cpu_s=op_cpu_s,
        op_norm_s=op_norm_s,
        cal_s=cal_s,
        attempted=attempted,
        failed=failed,
        digest=reference.digest,
        iterations=reference.iterations,
        planned=reference.planned,
        model=reference.model,
        counts=reference.counts,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        spans=log.spans,
    )
    return doc


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mode", choices=("ops", "traced", "setup", "layers"), required=True)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--spawned-at", type=float, default=None)
    args = ap.parse_args(argv)

    sys.path.insert(0, SRC)
    if args.mode == "layers":
        from layers import run_layer_drivers

        doc = run_layer_drivers(args.seed, args.smoke)
    else:
        from workloads import WORKLOADS

        wl = WORKLOADS[args.workload]
        if args.mode == "setup":
            size = wl.size(args.smoke)
            wl.build(wl.prepare(args.seed, size), args.seed, size)
            doc = _setup_seconds(args.spawned_at)
        else:
            doc = measure(
                wl,
                args.seed,
                args.seconds,
                smoke=args.smoke,
                traced=args.mode == "traced",
                spawned_at=args.spawned_at,
            )
    import numpy

    doc["versions"] = {"python": sys.version.split()[0], "numpy": numpy.__version__}
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
