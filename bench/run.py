#!/usr/bin/env python3
"""Host-time benchmark of the OSP simulator: six workloads, one command.

    python3 bench/run.py                          # every workload, end-to-end metrics
    python3 bench/run.py --traced                 # ... plus the per-layer pass
    python3 bench/run.py --workload t8_osp --seed 3 --seconds 10 --trace 0

Each workload runs in its own child interpreter (``child.py``) with BLAS
pinned to one thread and glibc malloc keeping its heap (``CHILD_ENV``). For
every workload and pass the last line printed is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: with ``--trace 0`` the
end-to-end metrics of ``BENCHMARK.json``, with ``--trace 1`` its per-layer
metrics. ``README.md`` defines every name.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

from ledger import COUNT_METRICS, ledger_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")

#: Fresh-process set-up samples per run (the measured child plus this many
#: ``--mode setup`` children, minus one).
SETUP_SAMPLES = 5
#: A child that has not finished by then is killed (the contract's cap is 180 s).
CHILD_TIMEOUT_S = 160
#: Environment of every child. BLAS is pinned to one thread. glibc malloc
#: serves every request from a heap it never trims: by default each large
#: numpy temporary is mapped, zero-filled by the kernel and unmapped again,
#: and on this VM that cost moved between 0.05 and 0.46 s per numeric op at
#: an equal page-fault count (README "Machine speed").
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "MALLOC_MMAP_MAX_": "0",
    "MALLOC_TRIM_THRESHOLD_": str(1 << 34),
}


class BenchError(Exception):
    """The benchmark could not produce a result (distinct from a failed op)."""


def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def spawn(mode: str, workload: str | None, args) -> dict:
    """Run one child to completion and return its JSON document."""
    cmd = [sys.executable, CHILD, "--mode", mode, "--seed", str(args.seed)]
    if workload is not None:
        cmd += ["--workload", workload, "--seconds", str(args.seconds)]
    if args.smoke:
        cmd.append("--smoke")
    env = dict(os.environ, **CHILD_ENV)
    cmd += ["--spawned-at", repr(time.monotonic())]
    # Its own session, so that on a timeout the child's own children (the
    # CLI and fork-pool drivers) are stopped with it.
    proc = subprocess.Popen(
        cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except BaseException as exc:  # timeout or interrupt: stop the whole group
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise BenchError(f"{mode} child of {workload} exceeded {CHILD_TIMEOUT_S} s") from None
        raise
    if proc.returncode != 0:
        raise BenchError(f"{mode} child of {workload} exited {proc.returncode}:\n{stderr.strip()}")
    return json.loads(stdout.strip().splitlines()[-1])


def summary(samples: list[float]) -> dict:
    """median / min / IQR / n of a list of timings."""
    q1, _, q3 = statistics.quantiles(samples, n=4) if len(samples) > 1 else (samples[0],) * 3
    return {
        "median": statistics.median(samples),
        "min": min(samples),
        "iqr": q3 - q1,
        "n": len(samples),
    }


def measured(mode: str, workload: str, args) -> dict:
    """The measured child's document; it must hold at least one good op."""
    doc = spawn(mode, workload, args)
    if not doc["op_s"]:
        raise BenchError(f"{workload}: no op succeeded: {doc['problems']}")
    doc["correct"] = doc["failed"] == 0 and not doc["problems"]
    return doc


def end_to_end(workload: str, args) -> dict:
    """The untraced pass: the measured child, then the extra set-up samples."""
    doc = measured("ops", workload, args)
    fresh = [doc] + [
        spawn("setup", workload, args) for _ in range(0 if args.smoke else SETUP_SAMPLES - 1)
    ]
    setups = [d["setup_norm_s"] for d in fresh]
    host = summary(doc["op_norm_s"])
    doc["setup_samples"] = setups
    doc["timings"] = {
        "host_s": host,
        "host_cpu_s": summary(doc["op_cpu_s"]),
        "host_wall_s": summary(doc["op_s"]),
        "iters_per_s": summary([doc["planned"] / s for s in doc["op_norm_s"]]),
        "setup_s": summary(setups),
        "setup_cpu_s": summary([d["setup_cpu_s"] for d in fresh]),
        "setup_wall_s": summary([d["setup_wall_s"] for d in fresh]),
    }
    doc["metrics"] = {
        "host_s": host["median"],
        "iters_per_s": doc["planned"] / host["median"],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": doc["peak_rss_mb"],
    }
    return doc


def per_layer(workload: str, layer_drivers: dict, args) -> dict:
    """The traced pass: reference ops, one profiled op, the layer drivers."""
    doc = measured("traced", workload, args)
    host_s = statistics.median(doc["op_s"])
    traced = doc.pop("traced")
    doc["timings"] = {"host_wall_s": summary(doc["op_s"])}
    doc["metrics"] = {
        **ledger_metrics(traced["ledger"], traced["run_s"], host_s),
        **doc["model"],
        # Absent where the benchmark holds no object to read them from
        # (README "Counts"): obs/check outside t8_obs, netsim inside sweep_bw.
        **{name: doc["counts"].get(name, 0) for name in COUNT_METRICS},
        "harness.cold_run_s": doc["cold_run_s"],
        **layer_drivers,
    }
    return doc


def result_line(doc: dict, declared: list[dict]) -> str:
    """The contract's last line; refuses a metric set that is not the declared one."""
    names = [m["name"] for m in declared]
    if set(names) != set(doc["metrics"]):
        raise BenchError(
            f"{doc['workload']}: metrics differ from BENCHMARK.json: "
            f"{sorted(set(names) ^ set(doc['metrics']))}"
        )
    units = {m["name"]: m["unit"] for m in declared}
    return json.dumps(
        {
            "correct": doc["correct"],
            "attempted": doc["attempted"],
            "failed": doc["failed"],
            "metrics": {n: {"value": doc["metrics"][n], "unit": units[n]} for n in names},
        }
    )


def report(doc: dict, declared: list[dict], title: str) -> None:
    units = {m["name"]: m["unit"] for m in declared}
    print(f"== {doc['workload']} [{title}] seed={doc['seed']} size={doc['size']}")
    print(f"   digest      {doc['digest']}")
    print(f"   iterations  {doc['iterations']} recorded / {doc['planned']} planned")
    for name, value in doc["model"].items():
        print(f"   {name:<28} {value!r}")
    for name, s in doc["timings"].items():
        print(
            f"   {name:<28} median {s['median']:.4f}  min {s['min']:.4f}  "
            f"iqr {s['iqr']:.4f}  n {s['n']}"
        )
    for name, value in doc["metrics"].items():
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"   {name:<28} {shown:>14} {units.get(name, '?')}")
    for problem in doc["problems"]:
        print(f"   !! {problem}")


def header(args) -> dict:
    info = {
        "nproc": os.cpu_count(),
        "loadavg": os.getloadavg(),
        "child_env": ",".join(f"{k}={v}" for k, v in CHILD_ENV.items()),
        "python": platform.python_version(),
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
    }
    print("# " + " ".join(f"{k}={v}" for k, v in info.items()), flush=True)
    return info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", action="append", help="repeatable; default: every workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, help="measured seconds per run (default: run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: the per-layer pass only")
    ap.add_argument("--traced", action="store_true", help="both passes")
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's own test")
    ap.add_argument("--out", help="write the full result document here")
    ap.add_argument("--trace-out", help="write the benchmark's spans here")
    args = ap.parse_args(argv)

    switches = sorted(k for k in os.environ if k.startswith("REPRO_"))
    if switches:
        print(f"refusing to run: {', '.join(switches)} set; only default paths are measured", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"refusing to run: no simulator source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    contract = load_contract()
    known = [w["name"] for w in contract["workloads"]]
    workloads = args.workload or known
    unknown = [w for w in workloads if w not in known]
    if unknown:
        ap.error(f"unknown workload {unknown}; choose from {known}")
    if args.seconds is None:
        args.seconds = 0.2 if args.smoke else float(contract["run_seconds"])
    passes = (0, 1) if args.traced else (args.trace,)

    document = {"header": header(args), "workloads": {}}
    spans: list[dict] = []
    ok = True
    try:
        layer_drivers = spawn("layers", None, args)["layers"] if 1 in passes else None
        for name in workloads:
            entry = document["workloads"].setdefault(name, {})
            for trace in passes:
                if trace:
                    doc = per_layer(name, layer_drivers, args)
                    declared, title = contract["per_layer"], "per-layer"
                    spans += doc["spans"]
                else:
                    doc = end_to_end(name, args)
                    declared, title = contract["end_to_end"], "end-to-end"
                document["header"].setdefault("versions", doc["versions"])
                entry[title] = doc
                line = result_line(doc, declared)
                report(doc, declared, title)
                ok = ok and doc["correct"]
                print(line, flush=True)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 3
    finally:
        if args.out:
            with open(args.out, "w") as fh:
                json.dump(document, fh, indent=1)
        if args.trace_out:
            with open(args.trace_out, "w") as fh:
                json.dump(spans, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
