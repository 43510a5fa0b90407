"""``tools/golden_drift.py``: two directories of replay streams may differ
only in floats, each by at most 1e-9 relative.

Tiny synthetic streams written by ``dump_stream``: an equal pair and a
one-ulp drift pass; a changed int, a missing record and a 1e-6 drift fail.
"""

import importlib.util
import math
from pathlib import Path

import pytest

from repro.check import dump_stream
from repro.check.replay import ReplayEvent

TOOL = Path(__file__).resolve().parents[1] / "tools" / "golden_drift.py"


@pytest.fixture(scope="module")
def drift():
    spec = importlib.util.spec_from_file_location("golden_drift", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _stream(end=2.5, worker=3, n=3):
    events = [
        ReplayEvent("iteration", (worker, i), (0.25 * i, end + i, 1.0 / 3, 64))
        for i in range(n)
    ]
    return events + [ReplayEvent("wall_time", (), (end * 10,))]


def _dirs(tmp_path, old, new):
    a, b = tmp_path / "old", tmp_path / "new"
    dump_stream(old, a / "osp_stream.jsonl")
    dump_stream(_stream(), a / "bsp_stream.jsonl")
    dump_stream(new, b / "osp_stream.jsonl")
    dump_stream(_stream(), b / "bsp_stream.jsonl")
    return a, b


@pytest.mark.parametrize(
    "new, ok",
    [
        (_stream(), True),
        (_stream(end=math.nextafter(2.5, 3.0)), True),
        (_stream(worker=4), False),
        (_stream(n=2), False),
        (_stream(end=2.5 * (1 + 1e-6)), False),
    ],
    ids=["equal", "one_ulp", "changed_int", "missing_record", "drift_1e-6"],
)
def test_only_small_float_drift_passes(drift, tmp_path, capsys, new, ok):
    a, b = _dirs(tmp_path, _stream(), new)
    assert drift.main([str(a), str(b)]) == (0 if ok else 1)
    out = capsys.readouterr().out.splitlines()
    files = [line.split(":")[0] for line in out]
    assert files == ["bsp_stream.jsonl", "osp_stream.jsonl"]
    assert out[0].endswith("max relative drift 0.000e+00 (record 0) ok")


def test_the_largest_drift_is_reported_per_file(drift, tmp_path, capsys):
    a, b = _dirs(tmp_path, _stream(), _stream(end=2.5 * (1 + 1e-12)))
    assert drift.main([str(a), str(b)]) == 0
    line = capsys.readouterr().out.splitlines()[1]
    worst = float(line.split("drift ")[1].split()[0])
    assert 1e-13 < worst < 1e-11 and line.endswith("ok")


def test_a_stream_missing_from_one_side_fails(drift, tmp_path, capsys):
    a, b = _dirs(tmp_path, _stream(), _stream())
    (b / "bsp_stream.jsonl").unlink()
    assert drift.main([str(a), str(b)]) == 1
    assert "bsp_stream.jsonl: missing from new" in capsys.readouterr().out
