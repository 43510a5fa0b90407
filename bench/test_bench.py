"""Self-test of the benchmark: ``python -m pytest bench/test_bench.py -q``.

Not part of tier-1 (``testpaths = ["tests"]``). Runs the whole benchmark at
smoke size, validates what it prints against ``BENCHMARK.json``, and checks
that the output checks and the comparison tool do fire.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
COMPARE = os.path.join(HERE, "compare.py")
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


def _clean_env(**extra: str) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    return {**env, **extra}


@pytest.fixture(scope="module")
def contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One smoke run of both passes: (stdout result lines, --out path)."""
    out = tmp_path_factory.mktemp("bench") / "smoke.json"
    proc = subprocess.run(
        [sys.executable, RUN, "--smoke", "--traced", "--out", str(out)],
        env=_clean_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = [json.loads(l) for l in proc.stdout.splitlines() if l.startswith("{")]
    return lines, out


def test_every_declared_workload_and_metric_is_printed(contract, smoke):
    lines, out = smoke
    passes = (contract["end_to_end"], contract["per_layer"])
    assert len(lines) == len(passes) * len(contract["workloads"])
    for i, line in enumerate(lines):
        declared = passes[i % 2]
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
        assert list(line["metrics"]) == [m["name"] for m in declared]
        for spec in declared:
            got = line["metrics"][spec["name"]]
            assert NAME_RE.fullmatch(spec["name"])
            assert got["unit"] == spec["unit"] and got["unit"]
            assert isinstance(got["value"], (int, float))
    for spec in contract["end_to_end"]:
        assert all(l["metrics"][spec["name"]]["value"] > 0 for l in lines[0::2]), spec["name"]
    with open(out) as fh:
        assert list(json.load(fh)["workloads"]) == [w["name"] for w in contract["workloads"]]


def test_ledger_accounts_for_the_run_span(smoke):
    lines, _ = smoke
    for line in lines[1::2]:
        shares = [v["value"] for k, v in line["metrics"].items() if k.endswith(".share")]
        assert sum(shares) == pytest.approx(1.0, abs=1e-6)
        assert line["metrics"]["other.share"]["value"] < 0.05
        assert line["metrics"]["simcore.events"]["value"] > 0


def test_compare_accepts_a_file_against_itself_and_flags_a_regression(smoke, tmp_path):
    _, out = smoke
    assert subprocess.run([sys.executable, COMPARE, str(out), str(out)], capture_output=True).returncode == 0

    with open(out) as fh:
        doc = json.load(fh)
    e2e = doc["workloads"]["t8_osp"]["end-to-end"]
    e2e["metrics"]["peak_rss_mb"] *= 1.5  # a single-valued metric: no spread to hide behind
    doc["workloads"]["t8_osp"]["per-layer"]["metrics"]["simcore.events"] += 1
    slower = tmp_path / "slower.json"
    slower.write_text(json.dumps(doc))
    proc = subprocess.run([sys.executable, COMPARE, str(out), str(slower)], capture_output=True, text=True)
    assert proc.returncode == 1
    assert "worse" in proc.stdout and "DIFFERS" in proc.stdout


def test_a_perturbed_seed_is_reported_as_a_failed_op():
    from child import measure
    from workloads import WORKLOADS

    doc = measure(WORKLOADS["t8_osp"], seed=1, seconds=0.0, smoke=True, perturb_op=1)
    assert (doc["attempted"], doc["failed"], len(doc["op_s"])) == (3, 1, 2)
    assert any("op 2: digest" in p for p in doc["problems"])


def test_shape_check_fires_on_a_run_shorter_than_planned():
    from workloads import WORKLOADS

    wl = WORKLOADS["t8_osp"]
    size = wl.size(smoke=True)
    trainer = wl.build(None, 1, size)
    outcome = wl.inspect(trainer, wl.run(trainer), {**size, "epochs": size["epochs"] + 1})
    assert any("planned" in p for p in outcome.failed_checks(outcome))


def test_refuses_to_run_with_a_repro_switch_set():
    proc = subprocess.run(
        [sys.executable, RUN, "--smoke"], env=_clean_env(REPRO_NETPRIO="off"),
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert proc.stdout == "" and len(proc.stderr.strip().splitlines()) == 1


def test_fails_without_a_result_where_the_simulator_is_missing(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "t8_osp", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=_clean_env(), capture_output=True, text=True,
    )
    assert proc.returncode != 0
    assert not any(l.startswith("{") for l in proc.stdout.splitlines())
