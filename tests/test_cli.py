"""Tests for the ``python -m repro`` CLI."""

import json
import os
import re
from pathlib import Path

import pytest

from repro.cli import SYNC_FACTORIES, build_parser, main


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_cards_command(capsys):
    assert main(["cards"]) == 0
    out = capsys.readouterr().out
    for card in ("resnet50-cifar10", "bertbase-squad"):
        assert card in out


def test_figures_command(capsys):
    assert main(["figures"]) == 0
    out = capsys.readouterr().out
    assert "bench_fig6a_throughput" in out
    assert "bench_fig9_bct_colocated" in out
    benches = Path(__file__).resolve().parents[1] / "benchmarks"
    on_disk = {path.stem for path in benches.glob("bench_*.py")}
    printed = set(re.findall(r"\bbench_\w+", out))
    assert printed - on_disk == {"bench_ablation_"}  # the `bench_ablation_*` glob
    assert {
        name for name in on_disk if not name.startswith("bench_ablation_")
    } <= printed


def test_run_timing_mode(capsys):
    code = main(
        [
            "run",
            "--workload",
            "resnet50-cifar10",
            "--sync",
            "bsp",
            "--mode",
            "timing",
            "--workers",
            "2",
            "--epochs",
            "2",
            "--iterations",
            "2",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "bsp" in out and "samples/s" in out


def test_run_past_default_jitter_streams(capsys):
    """96 workers: more than the 64 jitter streams a default model builds."""
    code = main(["run", "--sync", "osp", "--workers", "96", "--epochs", "1", "--json"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["iterations"] == 96 * 8


def test_run_json_output(capsys):
    main(
        [
            "run",
            "--sync",
            "osp",
            "--workers",
            "2",
            "--epochs",
            "2",
            "--iterations",
            "2",
            "--json",
        ]
    )
    payload = json.loads(capsys.readouterr().out)
    assert payload["sync"] == "osp"
    assert payload["throughput"] > 0
    assert len(payload["tta"]) == 2


def test_run_numeric_mode(capsys):
    code = main(
        [
            "run",
            "--mode",
            "numeric",
            "--sync",
            "bsp",
            "--workers",
            "2",
            "--epochs",
            "1",
            "--samples",
            "200",
            "--batch-size",
            "10",
        ]
    )
    assert code == 0
    assert "best metric" in capsys.readouterr().out


def test_run_rejects_unknown_sync():
    with pytest.raises(SystemExit):
        main(["run", "--sync", "nope"])


def test_compare_command(capsys):
    code = main(
        [
            "compare",
            "--workers",
            "2",
            "--epochs",
            "2",
            "--iterations",
            "2",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    for name in ("asp", "bsp", "r2sp", "osp"):
        assert name in out


def test_all_sync_factories_instantiate():
    for name, factory in SYNC_FACTORIES.items():
        model = factory()
        assert hasattr(model, "worker_process"), name


def test_run_json_includes_bst_percentiles_and_comm_share(capsys):
    main(
        ["run", "--sync", "bsp", "--workers", "2", "--epochs", "2",
         "--iterations", "2", "--json"]
    )
    payload = json.loads(capsys.readouterr().out)
    assert payload["bst_p50"] <= payload["bst_p90"] <= payload["bst_p99"]
    assert 0.0 < payload["communication_share"] < 1.0
    # A fault-free BSP run records only network-scheduler work counters.
    assert set(payload["counters"])
    assert all(k.startswith("netsim.") for k in payload["counters"])
    assert payload["counters"]["netsim.rerates"] > 0


def test_run_trace_then_report(tmp_path, capsys):
    trace = tmp_path / "trace.json"
    assert (
        main(
            ["run", "--sync", "osp", "--workers", "2", "--epochs", "6",
             "--iterations", "4", "--trace", str(trace)]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "trace events" in out
    payload = json.loads(trace.read_text())
    assert {"X", "C", "i"} <= {e["ph"] for e in payload["traceEvents"]}
    assert payload["otherData"]["sync"] == "osp"

    assert main(["report", str(trace)]) == 0
    report = capsys.readouterr().out
    assert "hidden-sync ratio" in report
    assert "BST decomposition" in report


def test_report_json_from_trace(tmp_path, capsys):
    trace = tmp_path / "trace.json"
    main(
        ["run", "--sync", "bsp", "--workers", "2", "--epochs", "2",
         "--iterations", "2", "--trace", str(trace)]
    )
    capsys.readouterr()
    assert main(["report", str(trace), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["sync"] == "bsp"
    # µs timestamps leave float dust, the same in memory
    # (tests/obs/test_overlap.py) as from the file.
    assert abs(payload["hidden_sync_ratio"]) < 1e-12
    assert payload["n_iterations"] == 8


def test_report_from_recorder_json(tmp_path, capsys):
    """A dumped recorder is not a trace: it is refused in one line that
    names its first key and the keys a trace has."""
    from repro.cluster import (
        ClusterSpec,
        DistributedTrainer,
        TimingEngine,
        TrainingPlan,
    )
    from repro.hardware import NoJitter
    from repro.metrics.export import recorder_to_dict
    from repro.nn.models import get_card
    from repro.sync import BSP

    spec = ClusterSpec(n_workers=2, jitter=NoJitter())
    plan = TrainingPlan(n_epochs=1, iterations_per_epoch=2)
    engine = TimingEngine(get_card("resnet50-cifar10"), spec, total_iterations=2)
    res = DistributedTrainer(spec, plan, engine, BSP()).run()
    path = tmp_path / "recorder.json"
    path.write_text(json.dumps(recorder_to_dict(res.recorder)))

    assert main(["report", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: {path}: iterations {_TRACE_KEYS}"]
    assert captured.out == ""


def _run_with_checkpoints(ckpt_dir, extra=()):
    return main(
        [
            "run",
            "--workload", "resnet50-cifar10",
            "--sync", "osp",
            "--mode", "timing",
            "--workers", "2",
            "--epochs", "4",
            "--iterations", "2",
            "--checkpoint-every", "2",
            "--checkpoint-dir", str(ckpt_dir),
            *extra,
        ]
    )


def test_run_checkpoint_then_inspect_round_trip(tmp_path, capsys):
    ckpt_dir = tmp_path / "ckpts"
    assert _run_with_checkpoints(ckpt_dir) == 0
    files = sorted(p.name for p in ckpt_dir.iterdir())
    assert files == ["ckpt-epoch0002.npz", "ckpt-epoch0004.npz"]
    capsys.readouterr()

    assert main(["ckpt", "inspect", str(ckpt_dir / "ckpt-epoch0002.npz"), "--json"]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["next_epoch"] == 2
    assert info["sync"].startswith("osp")
    assert info["counters"]["ckpt.save"] == 1

    # and the checkpoint actually resumes a run
    assert _run_with_checkpoints(
        tmp_path / "resumed",
        extra=["--resume", str(ckpt_dir / "ckpt-epoch0002.npz"), "--json"],
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["counters"]["ckpt.restore"] == 1
    assert payload["counters"]["ckpt.save"] == 2  # 1 restored + 1 new


def test_ckpt_inspect_table_output(tmp_path, capsys):
    ckpt_dir = tmp_path / "ckpts"
    _run_with_checkpoints(ckpt_dir)
    capsys.readouterr()
    assert main(["ckpt", "inspect", str(ckpt_dir / "ckpt-epoch0002.npz")]) == 0
    out = capsys.readouterr().out
    assert "next_epoch" in out and "arrays" in out


def test_ckpt_inspect_refuses_version_mismatch(tmp_path, capsys):
    from repro.ckpt import load_checkpoint, write_checkpoint

    ckpt_dir = tmp_path / "ckpts"
    _run_with_checkpoints(ckpt_dir)
    capsys.readouterr()
    path = ckpt_dir / "ckpt-epoch0002.npz"
    ckpt = load_checkpoint(path)
    ckpt.meta["format_version"] = 99
    write_checkpoint(ckpt, path)

    assert main(["ckpt", "inspect", str(path)]) == 1
    err = capsys.readouterr().err
    assert f"{path}: format_version must be an integer in [2, 2], got 99" in err


def _run_osp_counters(capsys, *extra):
    code = main(
        ["run", "--sync", "osp", "--workers", "2", "--epochs", "2",
         "--iterations", "2", "--json", *extra]
    )
    assert code == 0
    return json.loads(capsys.readouterr().out)["counters"]


def test_run_net_prio_sets_the_fabric_model_not_the_environment(capsys):
    before = dict(os.environ)
    on = _run_osp_counters(capsys, "--net-prio", "on")
    off = _run_osp_counters(capsys, "--net-prio", "off")
    assert on["netsim.prio_bytes.high"] > 0
    assert not [name for name in off if name.startswith("netsim.prio_bytes.")]
    assert os.environ == before
    # An earlier in-process `--net-prio off` must not leak into later runs.
    assert _run_osp_counters(capsys) == on


def test_run_seed_picks_the_jitter_draws(capsys):
    def wall_time(seed):
        code = main(["run", "--sync", "osp", "--workers", "2", "--epochs", "2",
                     "--iterations", "2", "--sigma", "0.3", "--seed", seed, "--json"])
        assert code == 0
        return json.loads(capsys.readouterr().out)["wall_time"]

    assert wall_time("1") == wall_time("1")
    assert wall_time("1") != wall_time("2")


def test_run_checkpoint_policy_discard_records_the_dropped_ics_bytes(tmp_path, capsys):
    def ckpt_counters(*extra):
        assert _run_with_checkpoints(tmp_path / "ck", extra=["--json", *extra]) == 0
        counters = json.loads(capsys.readouterr().out)["counters"]
        return {k: v for k, v in counters.items() if k.startswith("ckpt.")}

    discarded = "ckpt.ics_discarded_bytes"
    assert ckpt_counters("--checkpoint-policy", "discard")[discarded] > 0
    assert discarded not in ckpt_counters("--checkpoint-policy", "drain")
    assert discarded not in ckpt_counters()  # drain is the default


def test_dash_csv_and_prom_exports(tmp_path, capsys):
    csv, prom = tmp_path / "samples.csv", tmp_path / "last.prom"
    code = main(["dash", "--workers", "2", "--epochs", "2", "--iterations", "2",
                 "--out", str(tmp_path / "d.html"), "--csv", str(csv),
                 "--prom", str(prom)])
    assert code == 0
    rows = csv.read_text().splitlines()
    assert rows[0] == "time,track,value" and len(rows) > 1
    lines = prom.read_text().splitlines()
    types = [line for line in lines if line.startswith("# TYPE")]
    assert types and all(line.endswith((" gauge", " counter")) for line in types)


def _multirun_summary(capsys, *extra):
    code = main(["multirun", "--workers", "2", "--epochs", "1", "--iterations", "2",
                 "--json", *extra])
    assert code == 0
    return json.loads(capsys.readouterr().out)


def test_multirun_placement_exclusive_gives_each_job_its_own_hosts(capsys):
    shared = _multirun_summary(capsys)  # shared is the default
    exclusive = _multirun_summary(capsys, "--placement", "exclusive")
    assert (shared["placement"], exclusive["placement"]) == ("shared", "exclusive")
    # two 3-node jobs (2 workers + a PS): stacked on 3 hosts, or 6 apart
    assert (shared["n_hosts"], exclusive["n_hosts"]) == (3, 6)
    assert {j["placement_mode"] for j in exclusive["jobs"].values()} == {"exclusive"}


def test_multirun_slots_and_gpus_per_host(capsys):
    wide = _multirun_summary(capsys, "--slots-per-host", "3")
    # the compute slots default to the tenant slots
    assert (wide["slots_per_host"], wide["gpus_per_host"]) == (3, 3)
    default = _multirun_summary(capsys)
    one_gpu = _multirun_summary(capsys, "--gpus-per-host", "1")
    assert (one_gpu["slots_per_host"], one_gpu["gpus_per_host"]) == (2, 1)
    # two tenants on one GPU per host serialise their compute
    for job in ("osp", "bulk"):
        assert one_gpu["jobs"][job]["mean_bct"] > default["jobs"][job]["mean_bct"]


def test_check_no_replay_skips_the_differential_replay(capsys):
    def payload(*extra):
        code = main(["check", "--sync", "osp", "--workers", "2", "--epochs", "2",
                     "--iterations", "2", "--json", *extra])
        assert code == 0
        return json.loads(capsys.readouterr().out)

    assert "replays" not in payload("--no-replay")
    assert payload()["replays"][0]["identical"] is True


def test_run_elastic_leave_and_join_from_faults_json(capsys):
    """Joins and leaves reach the CLI as fault kinds, beside crashes."""
    code = main([
        "run", "--sync", "bsp", "--workers", "4", "--epochs", "4", "--iterations", "2",
        "--faults", '[{"kind":"worker_leave","worker":1,"epoch":2},'
        '{"kind":"worker_join","worker":3,"epoch":1}]', "--json",
    ])  # fmt: skip
    assert code == 0
    counters = json.loads(capsys.readouterr().out)["counters"]
    assert counters["elastic.worker_leave"] == 1
    assert counters["elastic.worker_join"] == 1


_NO_FAULT_FILE = "--faults: cannot read nope.json: No such file or directory"

_UNBUILDABLE = [
    ("run --workers 0", "n_workers must be an integer in [1, inf), got 0"),
    ("run --epochs 0", "n_epochs must be an integer in [1, inf), got 0"),
    ("run --iterations 0", "iterations_per_epoch must be an integer in [1, inf) or None, got 0"),
    ("run --sigma -1", "sigma must be a real in [0, inf), got -1.0"),
    ("run --sigma nan", "sigma must be a real in [0, inf), got nan"),
    ("run --sigma inf", "sigma must be a real in [0, inf), got inf"),
    ("run --sigma=-inf", "sigma must be a real in [0, inf), got -inf"),
    ("multirun --sigma nan", "sigma must be a real in [0, inf), got nan"),
    (
        "run --checkpoint-every 0 --checkpoint-dir D",
        "every must be an integer in [1, inf), got 0",
    ),
    ("check --workers 0", "n_workers must be an integer in [1, inf), got 0"),
    ("dash --workers 0 --out x.html", "n_workers must be an integer in [1, inf), got 0"),
    ("multirun --workers 0", "n_workers must be an integer in [1, inf), got 0"),
    ("multirun --hosts 0", "n_hosts must be an integer in [1, inf), got 0"),
    # a headroom outside (0, inf), and a job bandwidth admission could never admit
    *(
        (f"multirun --workers 2 --epochs 1 --admission bandwidth --headroom={h}",
         f"headroom must be a real in (0, inf), got {float(h)!r}")
        for h in ("0", "-1", "nan", "inf")
    ),
    (
        "multirun --workers 2 --epochs 1 --admission bandwidth --headroom 0.5",
        "job 'osp' can never be admitted: 2 workers at line rate exceed "
        "headroom 0.5 x 3 hosts (bandwidth admission needs headroom >= 2/3)",
    ),
    ("compare --workers 0", "n_workers must be an integer in [1, inf), got 0"),
    (
        'run --faults {"event":[]}',
        "--faults: event is not a known key; expected events",
    ),
    (
        'run --faults {"faults":5}',
        "--faults: faults is not a known key; expected events",
    ),
    (
        'run --faults [{"kind":"straggler","wrker":1}]',
        "--faults: [0].wrker is not a known key; expected kind, worker, start, "
        "duration, [factor]",
    ),
    (
        'run --faults [{"kind":"worker_crash","worker":1}]',
        "--faults: [0].before_epoch is missing",
    ),
    # worker ids and epochs of the membership kinds are JSON integers
    (
        'run --faults [{"kind":"worker_crash","worker":1.5,"before_epoch":1}]',
        "--faults: [0].worker must be an integer in [0, inf), got 1.5",
    ),
    (
        'run --faults [{"kind":"worker_crash","worker":1,"before_epoch":1.5}]',
        "--faults: [0].before_epoch must be an integer in [1, inf), got 1.5",
    ),
    (
        'run --faults [{"kind":"worker_crash","worker":true,"before_epoch":1}]',
        "--faults: [0].worker must be an integer in [0, inf), got True",
    ),
    (
        'run --faults [{"kind":"worker_crash","worker":1,"before_epoch":1,"restart_epoch":2.5}]',
        "--faults: [0].restart_epoch must be an integer in [2, inf) or None, got 2.5",
    ),
    (
        'run --faults [{"kind":"straggler","worker":1.5,"start":0,"duration":1}]',
        "--faults: [0].worker must be an integer in [0, inf), got 1.5",
    ),
    (
        'run --faults [{"kind":"worker_join","worker":3,"epoch":1.0}]',
        "--faults: [0].epoch must be an integer in [1, inf), got 1.0",
    ),
    (
        'run --faults [{"kind":"worker_leave","worker":"1","epoch":2}]',
        "--faults: [0].worker must be an integer in [0, inf), got '1'",
    ),
    (
        'run --workers 2 --faults [{"kind":"worker_leave","worker":0,"epoch":1},'
        '{"kind":"worker_join","worker":1,"epoch":2}]',
        "no worker is in the cluster during epoch 1, but a later join or restart waits on it",
    ),
    # a fault aimed at a worker or node the cluster lacks
    (
        'run --faults [{"kind":"straggler","worker":99,"start":0,"duration":1}]',
        "fault schedule straggler names unknown worker 99",
    ),
    (
        'run --faults [{"kind":"link_flap","start":0,"duration":1,"nodes":[0,99]}]',
        "fault schedule link_flap names unknown node 99",
    ),
    # a wrongly typed container is refused, never iterated
    *(
        (f'run --faults [{{"kind":"link_flap","start":0,"duration":1,"nodes":{nodes}}}]',
         "--faults: [0].nodes must be a sequence, each an integer in [0, inf) or None, "
         f"got {got}")
        for nodes, got in (("5", "5"), ('"ab"', "'ab'"), ('{"0":1}', "{'0': 1}"))
    ),
    ("run --faults nope.json", _NO_FAULT_FILE),
    ("dash --faults nope.json --out x.html", _NO_FAULT_FILE),
    ("check --faults nope.json", _NO_FAULT_FILE),
    ("compare --faults nope.json", _NO_FAULT_FILE),
]


@pytest.mark.parametrize(
    "argv, refusal", _UNBUILDABLE, ids=[argv for argv, _ in _UNBUILDABLE]
)
def test_unbuildable_spec_is_one_error_line_not_a_traceback(
    argv, refusal, capsys, tmp_path, monkeypatch
):
    monkeypatch.chdir(tmp_path)  # `dash --out x.html` must not be written
    assert main(argv.split()) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: {refusal}"]
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("interval", ["nan", "inf", "0", "-1"])
def test_dash_refuses_a_bad_interval_in_one_line(interval, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # `dash --out x.html` must not be written
    argv = ["dash", "--workers", "2", "--epochs", "1", "--iterations", "2",
            f"--interval={interval}", "--out", "x.html"]  # fmt: skip
    assert main(argv) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: interval must be a real in (0, inf), got {float(interval)!r}"
    ]
    assert not list(tmp_path.iterdir())


_NOT_AN_OBJECT = "error: {f} must be an object, got "
_TRACE_KEYS = "is not a known key; expected traceEvents, [displayTimeUnit], [otherData]"
_NO_SPANS = (
    "traceEvents holds no complete ('X') span, so no iteration to report "
    "(write a trace with `repro run --trace FILE`)"
)
_REPORT_CORPUS = [
    # (file text or None for a missing file, stderr line)
    (None, "error: {f}: No such file or directory"),
    ("", "error: {f}: not JSON (Expecting value: line 1 column 1 (char 0))"),
    ("{not json", "error: {f}: not JSON (Expecting property name enclosed "
                  "in double quotes: line 1 column 2 (char 1))"),
    ('"trace"', _NOT_AN_OBJECT + "'trace'"),
    ("5", _NOT_AN_OBJECT + "5"),
    ('{"traceEvents": 5}', "error: {f}: traceEvents must be a list, got 5"),
    ("[1]", _NOT_AN_OBJECT + "[1]"),
    ('{"traceEvents": [1]}', "error: {f}: traceEvents[0] must be an object, got 1"),
    ('{"counters": {"x": "y"}}', "error: {f}: counters " + _TRACE_KEYS),
    ('{"iterations": 5}', "error: {f}: iterations " + _TRACE_KEYS),
    ('{"a": 1}', "error: {f}: a " + _TRACE_KEYS),
    ('{"traceEvents": [{"ph": "X"}]}', "error: {f}: traceEvents[0].ts is missing"),
    ('{"traceEvents": [{"ph": "X", "ts": "a"}]}',
     "error: {f}: traceEvents[0].ts must be a real in [0, inf), got 'a'"),
    ('{"traceEvents": [{"ph": "X", "ts": NaN}]}',
     "error: {f}: traceEvents[0].ts must be a real in [0, inf), got nan"),
    ('{"traceEvents": [{"ph": "X", "ts": 0, "dur": true}]}',
     "error: {f}: traceEvents[0].dur must be a real in [0, inf), got True"),
    ('{"traceEvents": [{"ph": "X", "ts": 0, "name": 5}]}',
     "error: {f}: traceEvents[0].name must be a string, got 5"),
    ('{"traceEvents": [{"ph": "X", "ts": 0, "args": []}]}',
     "error: {f}: traceEvents[0].args must be an object, got []"),
    ('{"traceEvents": [{"ph": "X", "ts": 0, "name": "compute", "args": {"worker": "a"}}]}',
     "error: {f}: traceEvents[0].args.worker must be an integer in [0, inf), got 'a'"),
    ('{"traceEvents": [{"ph": "X", "ts": 0, "pid": "network", '
     '"args": {"phase": "p", "bytes": null}}]}',
     "error: {f}: traceEvents[0].args.bytes must be a real in [0, inf), got None"),
    ('{"traceEvents": [], "otherData": 3}', "error: {f}: otherData must be an object, got 3"),
    ('{"traceEvents": [], "otherData": {"traffic": {"rs": 5}}}',
     "error: {f}: otherData.traffic['rs'] must be an object, got 5"),
    ('{"traceEvents": [], "otherData": {"traffic": {"rs": {"fc": "1"}}}}',
     "error: {f}: otherData.traffic['rs']['fc'] must be a real in [0, inf), got '1'"),
    ('{"traceEvents": [], "otherData": {"recorderCounters": {"x": "y"}}}',
     "error: {f}: otherData.recorderCounters['x'] must be a real in (-inf, inf), got 'y'"),
    ('{"traceEvents": [], "otherData": {"wallTime": "1"}}',
     "error: {f}: otherData.wallTime must be a real in [0, inf), got '1'"),
    ('{"traceEvents": [], "otherData": {"wallTime": Infinity}}',
     "error: {f}: otherData.wallTime must be a real in [0, inf), got inf"),
    ("[]", _NOT_AN_OBJECT + "[]"),
    ('"s"', _NOT_AN_OBJECT + "'s'"),
    # times, durations and byte counts are non-negative
    ('{"traceEvents": [{"ph": "X", "ts": -1}]}',
     "error: {f}: traceEvents[0].ts must be a real in [0, inf), got -1"),
    ('{"traceEvents": [{"ph": "X", "ts": 0, "dur": -0.5}]}',
     "error: {f}: traceEvents[0].dur must be a real in [0, inf), got -0.5"),
    ('{"traceEvents": [{"ph": "X", "ts": 0, "pid": "network", '
     '"args": {"phase": "p", "bytes": -8}}]}',
     "error: {f}: traceEvents[0].args.bytes must be a real in [0, inf), got -8"),
    ('{"traceEvents": [], "otherData": {"traffic": {"rs": {"fc": -1.5}}}}',
     "error: {f}: otherData.traffic['rs']['fc'] must be a real in [0, inf), got -1.5"),
    ('{"traceEvents": [], "otherData": {"wallTime": -1.0}}',
     "error: {f}: otherData.wallTime must be a real in [0, inf), got -1.0"),
    # a trace must hold a complete span: without one there is no iteration
    ('{"traceEvents": [], "otherData": {"wallTime": 1.0}}', "error: {f}: " + _NO_SPANS),
    ('{"traceEvents": [{"ph": "C", "ts": 0, "name": "obs.net.inflight_bytes", '
     '"args": {"value": 1}}], "otherData": {"wallTime": 1.0, '
     '"traffic": {"rs": {"fc": 8.0}}}}',
     "error: {f}: " + _NO_SPANS),
]

#: ``report FILE`` and ``report --compare FILE FILE`` open files through one
#: reader, so every unusable file is refused the same way by both.
_REPORT_CASES = [
    (flags, text, line)
    for flags in ((), ("--compare",))
    for text, line in _REPORT_CORPUS
]


@pytest.mark.parametrize(
    "flags, text, line",
    _REPORT_CASES,
    ids=[f"{' '.join(f) or 'file'}:{t!r}" for f, t, _ in _REPORT_CASES],
)
def test_report_refuses_unusable_file_in_one_line(flags, text, line, tmp_path, capsys):
    path = tmp_path / "in.json"
    if text is not None:
        path.write_text(text)
    files = [str(path)] * (2 if flags else 1)
    assert main(["report", *flags, *files]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [line.format(f=path)]
    assert captured.out == ""


def _traced_run(path, *extra):
    argv = ["run", "--workload", "vgg16-cifar10", "--workers", "4", "--epochs", "3",
            "--iterations", "6", "--trace", str(path), *extra]  # fmt: skip
    assert main(argv) == 0


@pytest.fixture(scope="module")
def compare_traces(tmp_path_factory):
    """A clean traced run and the same run under the Makefile's bandwidth dip."""
    root = tmp_path_factory.mktemp("compare")
    clean, dip = root / "clean.json", root / "dip.json"
    _traced_run(clean)
    _traced_run(dip, "--faults", '[{"kind": "bandwidth_dip", "start": 2.0, '
                                 '"duration": 120.0, "factor": 0.25}]')
    return clean, dip


def test_report_compare_reads_two_traces(compare_traces, capsys):
    clean, dip = compare_traces
    capsys.readouterr()
    assert main(["report", "--compare", str(clean), str(dip), "--json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "regression"
    assert doc["dominant_phase"] == "rs"
    assert main(["report", "--compare", str(clean), str(clean)]) == 0
    assert "verdict: OK" in capsys.readouterr().out


@pytest.mark.parametrize("bound", ["nan", "inf", "-0.5"])
def test_report_compare_refuses_a_bad_max_slowdown(bound, compare_traces, capsys):
    clean, _dip = compare_traces
    capsys.readouterr()
    argv = ["report", "--compare", str(clean), str(clean), f"--max-slowdown={bound}"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        f"error: max_slowdown must be a finite number >= 0, got {float(bound)!r}"
    ]
    assert captured.out == ""


def test_report_compare_refuses_a_trace_without_its_wall_time(
    compare_traces, tmp_path, capsys
):
    clean, _dip = compare_traces
    doc = json.loads(clean.read_text())
    del doc["otherData"]["wallTime"]
    old = tmp_path / "old.json"
    old.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["report", str(old)]) == 0  # the overlap report does not need it
    capsys.readouterr()
    assert main(["report", "--compare", str(clean), str(old)]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        f"error: {old}: otherData.wallTime is missing, so the trace cannot be "
        "compared (write it again with `repro run --trace FILE`)"
    ]
    assert captured.out == ""


def test_jobs_spec_with_nan_sigma_is_a_bad_spec(capsys):
    jobs = '[{"name":"a","sync":"osp","workers":2,"epochs":1,"iterations":2,"sigma":NaN}]'
    assert main(["multirun", "--jobs", jobs]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "error: --jobs: [0].sigma must be a real in [0, inf), got nan"
    ]


@pytest.mark.parametrize(
    "argv, code",
    [(["run", "--faults"], 1), (["multirun", "--jobs"], 2)],
    ids=["faults", "jobs"],
)
def test_jobs_and_faults_open_their_value_the_same_way(argv, code, capsys):
    """Inline text that starts with ``[`` or ``{`` is JSON for both flags,
    anything else a path, and a missing file is worded the same for both."""
    flag = argv[-1]
    assert main([*argv, "nope.json"]) == code
    assert capsys.readouterr().err.splitlines() == [
        f"error: {flag}: cannot read nope.json: No such file or directory"
    ]
    assert main([*argv, ' {"jobs": []}']) == code
    expected = "error: --faults: jobs is not a known key; expected events"
    if flag == "--jobs":
        expected = "error: --jobs must be a list, got {'jobs': []}"
    assert capsys.readouterr().err.splitlines() == [expected]


def test_value_error_mid_run_stays_loud(monkeypatch):
    """Only construction is refused politely: an internal ``ValueError``
    out of a running simulation is a bug and keeps its traceback."""
    from repro.cluster.trainer import DistributedTrainer

    def broken_run(self):
        raise ValueError("internal invariant broken")

    monkeypatch.setattr(DistributedTrainer, "run", broken_run)
    with pytest.raises(ValueError, match="internal invariant broken"):
        main(["run", "--workers", "2", "--epochs", "1", "--iterations", "1"])
