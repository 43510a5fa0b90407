"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------
``run``      one (workload, sync model) training simulation
``report``   overlap/BST report from a trace.json (``run --trace``), or
             ``--compare`` two of them
``compare``  all four paper sync models on one workload
``figures``  list the figure-regeneration benchmarks
``cards``    list the model cards (paper-scale workload descriptions)
``ckpt``     checkpoint tools (``ckpt inspect FILE``)
``check``    runtime invariant monitors + differential replay (repro.check)

Examples
--------
::

    python -m repro run --workload resnet50-cifar10 --sync osp --mode timing
    python -m repro run --workload bertbase-squad --sync bsp --mode numeric --epochs 4
    python -m repro compare --workload vgg16-cifar10 --epochs 20
    python -m repro cards
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

from repro.bounds import COUNT, INDEX, NON_NEGATIVE, read_json_arg
from repro.core.colocated import ColocatedOSP
from repro.core.osp import OSP
from repro.metrics.report import format_table
from repro.nn.models.registry import MODEL_CARDS
from repro.sync import ASP, BSP, DSSP, R2SP, SSP, ShardedBSP, SyncSwitch, WFBP

# The rest is imported by the subcommand that uses it: the parser needs
# only the cards and the sync models, and ``repro cards`` builds no trainer.

SYNC_FACTORIES = {
    "bsp": BSP,
    "asp": ASP,
    "ssp": SSP,
    "dssp": DSSP,
    "r2sp": R2SP,
    "r2sp-duplex": lambda: R2SP(duplex=True),
    "sync-switch": SyncSwitch,
    "sharded-bsp": ShardedBSP,
    "wfbp": WFBP,
    "osp": OSP,
    "osp-c": ColocatedOSP,
    "osp-forced-bsp": lambda: OSP(force="bsp"),
    "osp-forced-asp": lambda: OSP(force="asp"),
}


class Refused(Exception):
    """The arguments describe a spec, plan or trainer that cannot be built."""


@contextlib.contextmanager
def _constructing():
    """Turn a ``ValueError`` from building a spec, plan or trainer into the
    one ``error: …`` line :func:`main` prints. Only construction goes under
    it: a ``ValueError`` out of a running simulation stays a traceback."""
    try:
        yield
    except ValueError as exc:
        raise Refused(str(exc)) from exc


@_constructing()
def _build_trainer(args, sync_name: str):
    from repro.faults import parse_faults
    from repro.harness.workloads import (
        WorkloadConfig,
        make_numeric_dataset,
        numeric_trainer,
        timing_trainer,
    )

    faults = parse_faults(args.faults) if getattr(args, "faults", None) else None
    cfg = WorkloadConfig(
        args.workload,
        n_workers=args.workers,
        n_epochs=args.epochs,
        iterations_per_epoch=args.iterations,
        sigma=args.sigma,
        seed=args.seed,
        colocated_ps=sync_name == "osp-c",
        faults=faults,
    )
    sync = SYNC_FACTORIES[sync_name]()
    trainer_kwargs = {}
    if getattr(args, "checkpoint_every", None) is not None:  # 0 is refused, not off
        trainer_kwargs["checkpoint_every"] = args.checkpoint_every
        trainer_kwargs["checkpoint_dir"] = args.checkpoint_dir or "checkpoints"
        trainer_kwargs["checkpoint_policy"] = args.checkpoint_policy
    if getattr(args, "resume", None):
        trainer_kwargs["resume_from"] = args.resume
    if args.mode == "timing":
        return timing_trainer(cfg, sync, **trainer_kwargs)
    data = make_numeric_dataset(cfg.card, n_samples=args.samples, seed=args.seed)
    return numeric_trainer(
        cfg, sync, data=data, batch_size=args.batch_size, **trainer_kwargs
    )


def _result_row(res):
    return (
        res.sync_name,
        f"{res.throughput:.1f}",
        f"{res.mean_bst * 1e3:.0f}",
        f"{res.mean_bct * 1e3:.0f}",
        f"{res.best_metric:.3f}",
        f"{res.wall_time:.1f}",
    )


_HEADERS = ["sync", "samples/s", "BST (ms)", "BCT (ms)", "best metric", "virtual s"]


def cmd_run(args) -> int:
    trainer = _build_trainer(args, args.sync)  # loads and applies --resume
    trainer.network.priorities = args.net_prio == "on"
    if args.trace:
        trainer.enable_tracing()
    # Only a resumed run can refuse its checkpoint mid-run; a fresh one
    # catches nothing here and never loads repro.ckpt.
    if args.resume:
        from repro.ckpt import CheckpointError as refused
    else:
        refused = ()
    try:
        res = trainer.run()  # restores the sync model's checkpointed state
    except refused as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.trace:
        from repro.obs.chrome import write_unified_trace

        n = write_unified_trace(args.trace, res)
        print(f"wrote {n} trace events to {args.trace} "
              "(open in chrome://tracing or Perfetto; "
              f"analyse with `repro report {args.trace}`, "
              "diff two with `repro report --compare A.json B.json`)")
    if args.json:
        rec = res.recorder
        print(
            json.dumps(
                {
                    "workload": args.workload,
                    "sync": res.sync_name,
                    "mode": args.mode,
                    "throughput": res.throughput,
                    "mean_bst": res.mean_bst,
                    "mean_bct": res.mean_bct,
                    "bst_p50": rec.bst_percentile(50),
                    "bst_p90": rec.bst_percentile(90),
                    "bst_p99": rec.bst_percentile(99),
                    "communication_share": rec.communication_share(),
                    "best_metric": res.best_metric,
                    "wall_time": res.wall_time,
                    "iteration_end_time": res.iteration_end_time,
                    "iterations": rec.total_iterations,
                    "counters": rec.counters,
                    "tta": rec.time_to_accuracy(),
                }
            )
        )
    else:
        print(format_table(_HEADERS, [_result_row(res)], title=args.workload))
    return 0


def _open_trace(path: str, compare: bool):
    """``read_trace(path)``, or None after printing the one ``error: FILE: …``
    line. A trace to compare must also hold the run's wall clock."""
    from repro.obs.chrome import read_trace
    from repro.obs.compare import wall_time

    try:
        doc = read_trace(path)  # its refusals name the file
        if compare:
            wall_time(doc, path)
        return doc
    except OSError as exc:
        why = f"{path}: {exc.strerror or exc}"
    except json.JSONDecodeError as exc:
        why = f"{path}: not JSON ({exc})"
    except ValueError as exc:
        why = exc
    print(f"error: {why}", file=sys.stderr)
    return None


def cmd_report(args) -> int:
    files = args.compare or [args.file]
    if files[0] is None:
        print("error: report needs a FILE or --compare A.json B.json",
              file=sys.stderr)
        return 2
    docs = []
    for path in files:
        doc = _open_trace(path, compare=bool(args.compare))
        if doc is None:
            return 2
        docs.append(doc)
    if args.compare:
        from repro.obs.compare import compare_runs

        try:
            report = compare_runs(*docs, max_slowdown=args.max_slowdown)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(json.dumps(report.as_dict()) if args.json else report.render())
        return 1 if report.verdict == "regression" else 0

    from repro.obs.overlap import overlap_report_from_trace

    report = overlap_report_from_trace(docs[0])
    print(json.dumps(report.to_dict()) if args.json else report.render())
    return 0


def cmd_dash(args) -> int:
    from pathlib import Path

    from repro.obs.dash import export_csv, export_prometheus, render_dashboard

    trainer = _build_trainer(args, args.sync)
    try:
        sampler = trainer.enable_sampling(interval=args.interval)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    res = trainer.run()
    title = f"{args.workload} / {res.sync_name}"
    out = Path(args.out)
    out.write_text(render_dashboard(res, sampler, title=title))
    print(f"wrote dashboard to {out} "
          f"({len(sampler.series)} tracks, {sampler.samples_taken} samples)")
    if args.csv:
        Path(args.csv).write_text(export_csv(sampler))
        print(f"wrote samples CSV to {args.csv}")
    if args.prom:
        Path(args.prom).write_text(export_prometheus(sampler))
        print(f"wrote Prometheus text exposition to {args.prom}")
    return 0


#: One ``--jobs`` entry; every key may be left out.
JOB = {
    "name?": str,
    "workload?": frozenset(MODEL_CARDS),
    "sync?": frozenset(SYNC_FACTORIES),
    "workers?": COUNT,
    "epochs?": COUNT,
    "iterations?": COUNT,
    "seed?": INDEX,
    "sigma?": NON_NEGATIVE,
    "background?": bool,
}


def _parse_jobs_spec(spec: str):
    """--jobs value: inline JSON list or a path to a JSON file, a list of
    :data:`JOB` records."""
    from repro.harness.workloads import WorkloadConfig
    from repro.multijob import JobSpec, background_job

    entries = read_json_arg(spec, [JOB], "--jobs")
    if not entries:
        raise ValueError("--jobs must be a non-empty JSON list of job objects")
    jobs = []
    for i, entry in enumerate(entries):
        sync_name = entry.get("sync", "bsp")
        try:
            cfg = WorkloadConfig(
                entry.get("workload", "vgg16-cifar10"),
                n_workers=entry.get("workers", 4),
                n_epochs=entry.get("epochs", 2),
                iterations_per_epoch=entry.get("iterations", 4),
                sigma=entry.get("sigma", 0.1),
                seed=entry.get("seed", 0),
                colocated_ps=sync_name == "osp-c",
            )
            name = entry.get("name", f"j{i}")
            factory = SYNC_FACTORIES[sync_name]
            if entry.get("background"):
                jobs.append(background_job(name, cfg, factory))
            else:
                jobs.append(JobSpec(name=name, workload=cfg, sync_factory=factory))
        except ValueError as exc:
            raise ValueError(f"--jobs: [{i}]: {exc}") from exc
    return jobs


def cmd_multirun(args) -> int:
    from pathlib import Path

    from repro.harness.cotenancy import osp_with_background
    from repro.multijob import MultiJobRunner, multijob_summary, render_report

    try:
        jobs = _parse_jobs_spec(args.jobs) if args.jobs else None
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    with _constructing():
        if jobs is None:
            jobs = osp_with_background(
                card_name=args.workload,
                n_workers=args.workers,
                n_epochs=args.epochs,
                iterations_per_epoch=args.iterations,
                sigma=args.sigma,
                seed=args.seed,
            )
        runner = MultiJobRunner(
            jobs,
            n_hosts=args.hosts,
            placement=args.placement,
            admission=args.admission,
            slots_per_host=args.slots_per_host,
            gpus_per_host=args.gpus_per_host,
            headroom=args.headroom,
        )
    runner.network.priorities = args.net_prio == "on"
    if args.dash:
        runner.enable_sampling()
    result = runner.run()
    if args.json:
        print(json.dumps(multijob_summary(result)))
    else:
        print(render_report(result))
    if args.dash:
        from repro.obs.dash import render_multijob_dashboard

        Path(args.dash).write_text(render_multijob_dashboard(result))
        print(f"wrote co-tenancy dashboard to {args.dash}")
    return 0


def cmd_compare(args) -> int:
    rows = []
    for sync_name in ("asp", "bsp", "r2sp", "osp"):
        res = _build_trainer(args, sync_name).run()
        rows.append(_result_row(res))
    print(format_table(_HEADERS, rows, title=f"{args.workload} ({args.mode} mode)"))
    return 0


def cmd_cards(_args) -> int:
    rows = [
        (
            c.name,
            c.family,
            c.dataset,
            f"{c.paper_params / 1e6:.1f}M",
            f"{c.paper_flops_per_sample / 1e9:.1f}G",
            c.paper_layers,
            c.batch_size,
            c.metric,
        )
        for c in MODEL_CARDS.values()
    ]
    print(
        format_table(
            ["card", "family", "dataset", "params", "FLOPs/sample", "layers", "batch", "metric"],
            rows,
            title="Model cards (paper-scale workload descriptions)",
        )
    )
    return 0


def cmd_ckpt(args) -> int:
    from repro.ckpt import CheckpointError, describe, load_checkpoint

    try:
        ckpt = load_checkpoint(args.file)
    except CheckpointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    info = describe(ckpt)
    if args.json:
        print(json.dumps(info))
        return 0
    arrays = info.pop("arrays")
    counters = info.pop("counters")
    for key, value in info.items():
        print(f"{key:<22} {value}")
    if counters:
        print("counters")
        for name in sorted(counters):
            print(f"  {name:<28} {counters[name]}")
    print(f"arrays ({len(arrays)})")
    for name in sorted(arrays):
        meta = arrays[name]
        print(f"  {name:<28} {meta['size']:>10}  {meta['dtype']}")
    return 0


def cmd_check(args) -> int:
    import tempfile

    from repro.check import replay_resume, run_checked
    from repro.faults import parse_faults
    from repro.harness.workloads import (
        WorkloadConfig,
        make_numeric_dataset,
        numeric_trainer,
    )

    trainer = _build_trainer(args, args.sync)
    trainer.enable_tracing()
    _res, report = run_checked(trainer, strict=False)
    payload = {"monitors": report.to_dict()}
    ok = report.ok
    if not args.json:
        print(report.render())

    if not args.no_replay:
        # Replay runs in numeric mode at a reduced scale regardless of
        # --mode: the parameter-plane digest only exists for numeric runs,
        # and two full-scale extra runs would dominate the command's cost.
        with _constructing():
            faults = parse_faults(args.faults) if args.faults else None
            cfg = WorkloadConfig(
                args.workload,
                n_workers=min(args.workers, 4),
                n_epochs=min(args.epochs, 3),
                iterations_per_epoch=min(args.iterations, 4),
                sigma=args.sigma,
                seed=args.seed,
                colocated_ps=args.sync == "osp-c",
                faults=faults,
            )
            data = make_numeric_dataset(
                cfg.card, n_samples=min(args.samples, 400), seed=args.seed
            )

        def make_trainer(**trainer_kwargs):
            return numeric_trainer(
                cfg,
                SYNC_FACTORIES[args.sync](),
                data=data,
                batch_size=args.batch_size,
                **trainer_kwargs,
            )

        with tempfile.TemporaryDirectory(prefix="repro-check-") as tmpdir:
            replay = replay_resume(make_trainer, tmpdir)
        payload["replays"] = [replay.to_dict()]
        ok = ok and replay.identical
        if not args.json:
            print(replay.render())

    if args.json:
        payload["ok"] = ok
        print(json.dumps(payload))
    elif not ok:
        print("check: FAILED", file=sys.stderr)
    return 0 if ok else 1


def cmd_figures(_args) -> int:
    print(
        "Paper-figure, ablation and robustness benchmarks (run with "
        "`pytest benchmarks/ --benchmark-only -s`):\n"
        "  bench_fig1_fig2_timelines   Figs. 1-2  BSP/ASP timelines\n"
        "  bench_fig3_comm_share       Fig. 3     comm share vs scale\n"
        "  bench_motivation_gpu_comm   §1         comm overhead vs GPU\n"
        "  bench_fig6a_throughput      Fig. 6(a)  throughput\n"
        "  bench_fig6b_accuracy        Fig. 6(b)  top-1 / F1\n"
        "  bench_fig6c_iterations      Fig. 6(c)  iterations to best\n"
        "  bench_fig6d_bst             Fig. 6(d)  batch sync time\n"
        "  bench_fig7_tta_images       Fig. 7     time-to-accuracy (images)\n"
        "  bench_fig8_tta_nlp          Fig. 8     time-to-F1 (BERT)\n"
        "  bench_fig9_bct_colocated    Fig. 9     OSP-C BCT overhead\n"
        "  bench_ablation_*            our ablations (LGP, Algorithm 1,\n"
        "                              degradation, scaling, baselines,\n"
        "                              non-IID, congestion, compression)\n"
        "  bench_sensitivity_crossover rho-regime crossover analysis\n"
        "  bench_seed_robustness       Fig. 6(a)  ordering across seeds\n"
        "  bench_fault_robustness      §4.3       OSP under injected faults\n"
        "  bench_multijob              co-tenancy: OSP beside a BULK tenant\n"
        "  bench_netprio               RS-stage wait under priority scheduling\n"
        "  bench_sampling_overhead     cost of tracing and sampling"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="OSP (ICPP 2023) reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument(
            "--workload",
            default="resnet50-cifar10",
            choices=sorted(MODEL_CARDS),
        )
        p.add_argument("--mode", default="timing", choices=["timing", "numeric"])
        p.add_argument("--workers", type=int, default=8)
        p.add_argument("--epochs", type=int, default=12)
        p.add_argument("--iterations", type=int, default=8, help="per-epoch (timing mode)")
        p.add_argument("--sigma", type=float, default=0.1, help="straggler jitter")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--samples", type=int, default=1600, help="dataset size (numeric)")
        p.add_argument("--batch-size", type=int, default=25, help="numeric batch size")
        p.add_argument(
            "--faults",
            metavar="SPEC",
            help="fault schedule and membership timeline (worker_crash, "
            "worker_join, worker_leave): inline JSON (list of {kind,...} events) "
            "or a path to a JSON file — see repro.faults.parse_faults",
        )

    p_run = sub.add_parser("run", help="run one (workload, sync) simulation")
    add_common(p_run)
    p_run.add_argument("--sync", default="osp", choices=sorted(SYNC_FACTORIES))
    p_run.add_argument("--json", action="store_true", help="emit JSON")
    p_run.add_argument(
        "--trace", metavar="FILE",
        help="trace the run and write its unified trace JSON "
        "(Perfetto; `repro report FILE`, `repro report --compare A B`)",
    )
    p_run.add_argument(
        "--checkpoint-every", type=int, metavar="N",
        help="write a checkpoint every N epochs",
    )
    p_run.add_argument(
        "--checkpoint-dir", metavar="DIR",
        help="checkpoint directory (default: ./checkpoints)",
    )
    p_run.add_argument(
        "--checkpoint-policy", default="drain", choices=["drain", "discard"],
        help="in-flight ICS traffic at a snapshot: drain to a barrier "
        "or discard (recorded as ckpt.ics_discarded_bytes)",
    )
    p_run.add_argument(
        "--resume", metavar="FILE", help="resume from a checkpoint file"
    )
    p_run.add_argument(
        "--net-prio", choices=["on", "off"], default="on",
        help="priority-aware network scheduling (off: a plainly "
        "fair-shared fabric; see docs/performance.md)",
    )
    p_run.set_defaults(fn=cmd_run)

    p_rep = sub.add_parser(
        "report",
        help="overlap/BST report from a trace.json, "
        "or --compare two of them",
    )
    p_rep.add_argument(
        "file", nargs="?", default=None,
        help="unified trace JSON (from `repro run --trace FILE`)",
    )
    p_rep.add_argument(
        "--compare", nargs=2, metavar=("A.json", "B.json"),
        help="diff two unified traces (from `repro run --trace FILE`); "
        "exits 1 on a regression verdict",
    )
    p_rep.add_argument(
        "--max-slowdown", type=float, default=0.05,
        help="relative wall-clock growth tolerated before the --compare "
        "verdict is 'regression' (default 0.05)",
    )
    p_rep.add_argument("--json", action="store_true", help="emit JSON")
    p_rep.set_defaults(fn=cmd_report)

    p_dash = sub.add_parser(
        "dash",
        help="run a sampled workload and render a self-contained HTML "
        "dashboard (per-worker health, gauges, links, fault windows)",
    )
    add_common(p_dash)
    p_dash.add_argument("--sync", default="osp", choices=sorted(SYNC_FACTORIES))
    p_dash.add_argument(
        "--out", default="dash.html", metavar="FILE", help="output HTML path"
    )
    p_dash.add_argument(
        "--interval", type=float, default=None, metavar="SECONDS",
        help="sampling interval in virtual seconds "
        "(default: half a base compute time)",
    )
    p_dash.add_argument(
        "--csv", metavar="FILE", help="also export every sample as CSV"
    )
    p_dash.add_argument(
        "--prom", metavar="FILE",
        help="also export last values in Prometheus text format",
    )
    p_dash.set_defaults(fn=cmd_dash)

    p_multi = sub.add_parser(
        "multirun",
        help="run co-tenant jobs on one shared fabric (repro.multijob); "
        "default scenario: an OSP job plus a best-effort BSP tenant",
    )
    p_multi.add_argument(
        "--jobs", metavar="SPEC",
        help="job list: inline JSON or a path to a JSON file — entries "
        '{"name","workload","sync","workers","epochs","iterations",'
        '"sigma","seed","background"}',
    )
    p_multi.add_argument(
        "--workload", default="vgg16-cifar10", choices=sorted(MODEL_CARDS),
        help="default-scenario workload (ignored with --jobs)",
    )
    p_multi.add_argument("--workers", type=int, default=4)
    p_multi.add_argument("--epochs", type=int, default=3)
    p_multi.add_argument("--iterations", type=int, default=6)
    p_multi.add_argument("--sigma", type=float, default=0.1)
    p_multi.add_argument("--seed", type=int, default=7)
    p_multi.add_argument(
        "--hosts", type=int, default=None,
        help="pool size (default: exclusive fits all jobs at once; "
        "shared fits the widest job)",
    )
    p_multi.add_argument(
        "--placement", default="shared", choices=["exclusive", "shared"],
        help="exclusive hosts per job, or co-located hosts with slot "
        "contention (default: shared)",
    )
    p_multi.add_argument(
        "--admission", default="immediate",
        choices=["immediate", "fifo", "bandwidth"],
    )
    p_multi.add_argument(
        "--slots-per-host", type=int, default=2,
        help="tenant slots per host under shared placement",
    )
    p_multi.add_argument(
        "--gpus-per-host", type=int, default=None,
        help="compute slots per host (default: slots-per-host; lower "
        "values serialise co-located compute)",
    )
    p_multi.add_argument(
        "--headroom", type=float, default=1.0,
        help="bandwidth-admission capacity factor",
    )
    p_multi.add_argument("--json", action="store_true", help="emit JSON summary")
    p_multi.add_argument(
        "--dash", metavar="FILE",
        help="sample the run and write a co-tenancy HTML dashboard",
    )
    p_multi.add_argument(
        "--net-prio", choices=["on", "off"], default="on",
        help="priority-aware network scheduling (off: a plainly "
        "fair-shared fabric)",
    )
    p_multi.set_defaults(fn=cmd_multirun)

    p_cmp = sub.add_parser("compare", help="compare the four paper sync models")
    add_common(p_cmp)
    p_cmp.set_defaults(fn=cmd_compare)

    p_cards = sub.add_parser("cards", help="list model cards")
    p_cards.set_defaults(fn=cmd_cards)

    p_figs = sub.add_parser("figures", help="list figure benchmarks")
    p_figs.set_defaults(fn=cmd_figures)

    p_ckpt = sub.add_parser("ckpt", help="checkpoint tools")
    ckpt_sub = p_ckpt.add_subparsers(dest="ckpt_command", required=True)
    p_inspect = ckpt_sub.add_parser(
        "inspect", help="summarise a checkpoint file (meta + array inventory)"
    )
    p_inspect.add_argument("file", help="path to a ckpt-epoch*.npz file")
    p_inspect.add_argument("--json", action="store_true", help="emit JSON")
    p_inspect.set_defaults(fn=cmd_ckpt)

    p_check = sub.add_parser(
        "check",
        help="run under invariant monitors, then differential replay "
        "(resumed vs uninterrupted)",
    )
    add_common(p_check)
    p_check.add_argument("--sync", default="osp", choices=sorted(SYNC_FACTORIES))
    p_check.add_argument("--json", action="store_true", help="emit JSON")
    p_check.add_argument(
        "--no-replay", action="store_true",
        help="monitors only: skip the differential replay (two more runs)",
    )
    p_check.set_defaults(fn=cmd_check)
    return parser


def main(argv=None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except Refused as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # stdout closed early (e.g. piped into `head`) — normal CLI exit.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
