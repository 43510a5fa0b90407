"""CLI surface: ``repro multirun`` and the hardened ``report --compare``."""

import json
import os

import pytest

from repro.cli import SYNC_FACTORIES, main
from repro.nn.models.registry import MODEL_CARDS


def _multirun(*extra):
    return main(
        [
            "multirun",
            "--workers",
            "2",
            "--epochs",
            "1",
            "--iterations",
            "2",
            *extra,
        ]
    )


def test_multirun_default_scenario_renders_report(capsys):
    assert _multirun() == 0
    out = capsys.readouterr().out
    assert "osp" in out and "bulk" in out
    assert "contended" in out


def test_multirun_json_summary(capsys):
    assert _multirun("--json") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == "repro.multijob_summary/1"
    assert set(doc["jobs"]) == {"osp", "bulk"}
    assert doc["jobs"]["osp"]["sync"] == "osp"
    assert doc["jobs"]["osp"]["job_bytes"] > 0


def test_multirun_jobs_spec_inline_and_file(tmp_path, capsys):
    spec = [
        {"name": "a", "workload": "vgg16-cifar10", "sync": "bsp",
         "workers": 2, "epochs": 1, "iterations": 2},
        {"name": "b", "workload": "vgg16-cifar10", "sync": "asp",
         "workers": 2, "epochs": 1, "iterations": 2, "background": True},
    ]
    assert _multirun("--jobs", json.dumps(spec), "--json") == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc["jobs"]) == {"a", "b"}

    path = tmp_path / "jobs.json"
    path.write_text(json.dumps(spec))
    assert _multirun("--jobs", str(path), "--json") == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc["jobs"]) == {"a", "b"}


def test_multirun_json_and_dash_artifacts(tmp_path, capsys):
    dash = tmp_path / "mj.html"
    assert _multirun("--json", "--dash", str(dash)) == 0
    out = capsys.readouterr().out
    doc = json.loads(out.splitlines()[0])
    assert doc["schema"] == "repro.multijob_summary/1"
    assert "Interference" in dash.read_text()


@pytest.mark.parametrize(
    "spec",
    [
        "not-a-file-or-json",
        "[]",  # empty job list
        '[{"name": "a.b"}]',  # dots are not legal counter segments
        '[{"name": "a", "workload": "vgg16-cifar10", "sync": "bogus"}]',
        '[{"name": "a", "workload": "vgg16-cifar10", "sync": "bsp", "frob": 1}]',
        "[1, 2]",
    ],
    ids=[
        "missing-file", "empty-list", "bad-name", "bad-sync", "unknown-key",
        "non-object-entry",
    ],
)
def test_multirun_bad_jobs_spec_exits_2(spec, capsys):
    assert _multirun("--jobs", spec) == 2
    assert capsys.readouterr().err.startswith("error: --jobs")


_CARDS = ", ".join(map(repr, sorted(MODEL_CARDS)))
_SYNCS = ", ".join(map(repr, sorted(SYNC_FACTORIES)))


@pytest.mark.parametrize(
    "entry, refusal",
    [
        ({"workers": "x"}, "[0].workers must be an integer in [1, inf), got 'x'"),
        ({"workers": True}, "[0].workers must be an integer in [1, inf), got True"),
        ({"workers": 2.0}, "[0].workers must be an integer in [1, inf), got 2.0"),
        ({"epochs": 1.5}, "[0].epochs must be an integer in [1, inf), got 1.5"),
        ({"iterations": 2.5}, "[0].iterations must be an integer in [1, inf), got 2.5"),
        ({"seed": "1"}, "[0].seed must be an integer in [0, inf), got '1'"),
        ({"sigma": "0.1"}, "[0].sigma must be a real in [0, inf), got '0.1'"),
        ({"sigma": False}, "[0].sigma must be a real in [0, inf), got False"),
        ({"name": 5}, "[0].name must be a string, got 5"),
        ({"workload": 5}, f"[0].workload must be one of {_CARDS}, got 5"),
        ({"workload": "nope"}, f"[0].workload must be one of {_CARDS}, got 'nope'"),
        ({"sync": 5}, f"[0].sync must be one of {_SYNCS}, got 5"),
        ({"background": "no"}, "[0].background must be true or false, got 'no'"),
        ({"background": 1}, "[0].background must be true or false, got 1"),
    ],
    ids=lambda v: json.dumps(v) if isinstance(v, dict) else "",
)
def test_multirun_wrong_typed_job_key_is_one_line_exit_2(entry, refusal, capsys):
    job = {"name": "a", "workers": 2, "epochs": 1, "iterations": 2} | entry
    assert _multirun("--jobs", json.dumps([job])) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: --jobs: {refusal}"]
    assert captured.out == ""


@pytest.mark.parametrize(
    "flags, refusal",
    [
        ("--slots-per-host 1", "job 'bulk' can never be placed: immediate "
         "admission needs room for 10 nodes at once, and the shared pool of "
         "5 hosts x 1 slots holds 5"),
        ("--hosts 2", "job 'osp' can never be placed: immediate admission needs "
         "room for 5 nodes at once, and the shared pool of 2 hosts x 2 slots "
         "holds 4"),
        ("--placement exclusive --hosts 3", "job 'osp' can never be placed: "
         "immediate admission needs room for 5 nodes at once, and the exclusive "
         "pool of 3 hosts holds 3"),
        ("--admission fifo --hosts 2", "job 'osp' can never be placed: fifo "
         "admission needs room for 5 nodes alone, and the shared pool of 2 "
         "hosts x 2 slots holds 4"),
        ("--admission bandwidth --hosts 2 --headroom 10", "job 'osp' can never "
         "be placed: bandwidth admission needs room for 5 nodes alone, and the "
         "shared pool of 2 hosts x 2 slots holds 4"),
        ("--placement exclusive --admission fifo --hosts 3", "job 'osp' can "
         "never be placed: fifo admission needs room for 5 nodes alone, and "
         "the exclusive pool of 3 hosts holds 3"),
    ],
)  # fmt: skip
def test_multirun_on_a_pool_too_small_for_its_jobs_is_one_error_line(
    flags, refusal, capsys
):
    # The default scenario: two 5-node jobs (4 workers and a PS each). These
    # used to die mid-run placing 'bulk', or wedge waiting for room.
    assert main(["multirun", *flags.split()]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: {refusal}"]
    assert captured.out == ""


def test_report_compare_missing_file_exits_2(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    code = main(["report", "--compare", str(missing), str(missing)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [f"error: {missing}: No such file or directory"]


def test_report_compare_schema_mismatch_exits_2(tmp_path, capsys):
    # A multijob summary is not a trace: `report --compare` reads only traces.
    bogus = tmp_path / "bogus.json"
    bogus.write_text(json.dumps({"schema": "something/else", "jobs": {}}))
    code = main(["report", "--compare", str(bogus), str(bogus)])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: {bogus}: schema is not a known key; "
        "expected traceEvents, [displayTimeUnit], [otherData]"
    ]


def test_report_compare_corrupt_json_exits_2(tmp_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    code = main(["report", "--compare", str(broken), str(broken)])
    assert code == 2
    assert f"error: {broken}: not JSON" in capsys.readouterr().err


def test_multirun_net_prio_sets_the_fabric_model_not_the_environment(capsys):
    before = dict(os.environ)
    preemptions = {}
    for mode in ("off", "on"):
        assert main(["multirun", "--json", "--net-prio", mode]) == 0
        network = json.loads(capsys.readouterr().out)["network"]
        preemptions[mode] = network["netsim.prio_preemptions"]
    assert preemptions["on"] > 0
    assert preemptions["off"] == 0
    assert os.environ == before
