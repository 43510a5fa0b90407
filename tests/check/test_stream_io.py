"""Replay-stream serialization + committed golden-stream determinism gate.

The golden file pins the exact event stream of a small timing-mode OSP
run. Any change to the scheduler, netsim, OSP protocol, or recorder that
shifts even one float64 bit shows up here as a localized first-divergence
— *before* it ships as silent drift. If the divergence is an intended
semantic change, regenerate the golden:

    PYTHONPATH=src python tests/check/test_stream_io.py regen
"""

import sys
from pathlib import Path

import pytest

from repro.check import (
    capture_stream,
    dump_stream,
    first_divergence,
    load_stream,
)
from repro.core.osp import OSP
from repro.harness.workloads import WorkloadConfig, timing_trainer

GOLDEN = Path(__file__).parent / "golden" / "osp_vgg16_stream.jsonl"


def _golden_trainer():
    # Timing mode: virtual-time arithmetic only, no BLAS in the loop, so
    # the stream is reproducible across machines. 3x6 iterations so the
    # budget ramp engages ICS (the interesting part of the schedule).
    cfg = WorkloadConfig(
        card_name="vgg16-cifar10",
        n_workers=4,
        n_epochs=3,
        iterations_per_epoch=6,
        sigma=0.1,
        seed=7,
    )
    return timing_trainer(cfg, OSP())


def _fresh_stream():
    trainer = _golden_trainer()
    result = trainer.run()
    return capture_stream(trainer, result)


def test_dump_load_round_trip(tmp_path):
    stream = _fresh_stream()
    path = dump_stream(stream, tmp_path / "stream.jsonl")
    back = load_stream(path)
    assert back == stream  # dataclass equality: kind, key, value, bit-exact
    assert first_divergence(stream, back) is None


def test_load_rejects_non_streams(tmp_path):
    bogus = tmp_path / "bogus.jsonl"
    bogus.write_text('{"schema": "something/else"}\n')
    with pytest.raises(ValueError, match="line 1: schema must be one of 'repro.replay_stream/1'"):
        load_stream(bogus)
    truncated = tmp_path / "trunc.jsonl"
    stream = _fresh_stream()
    lines = dump_stream(stream, tmp_path / "full.jsonl").read_text().splitlines()
    truncated.write_text("\n".join(lines[:-5]) + "\n")
    with pytest.raises(ValueError, match="truncated"):
        load_stream(truncated)


_HEADER = '{"schema": "repro.replay_stream/1", "events": 1}'


@pytest.mark.parametrize(
    "lines, refusal",
    [
        ([_HEADER, '{"kind": "end", "value": [1.0]}'], "line 2: key is missing"),
        (["[1]"], "line 1 must be an object, got [1]"),
        (
            ['{"schema": "repro.replay_stream/1", "events": "a"}'],
            "line 1: events must be an integer in [0, inf), got 'a'",
        ),
        ([_HEADER, '{"kind": "end", "key": ["wall_time"], "value": [1.0'], "line 2: not JSON ("),
    ],
    ids=["line-without-key", "header-not-an-object", "events-not-an-integer", "cut-line"],
)
def test_load_refuses_a_malformed_line_naming_file_and_line(lines, refusal, tmp_path):
    path = tmp_path / "s.jsonl"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as refused:
        load_stream(path)
    assert type(refused.value) is ValueError
    assert str(refused.value).startswith(f"{path}: {refusal}")


def test_fresh_run_matches_committed_golden():
    golden = load_stream(GOLDEN)
    fresh = _fresh_stream()
    index = first_divergence(golden, fresh)
    if index is not None:
        g = golden[index] if index < len(golden) else None
        f = fresh[index] if index < len(fresh) else None
        pytest.fail(
            f"event stream diverged from golden at index {index}:\n"
            f"  golden: {g.render() if g else '<stream ended>'}\n"
            f"  fresh:  {f.render() if f else '<stream ended>'}\n"
            "If this change is intended, regenerate with: "
            "PYTHONPATH=src python tests/check/test_stream_io.py regen"
        )


if __name__ == "__main__":
    if len(sys.argv) > 1 and sys.argv[1] == "regen":
        path = dump_stream(_fresh_stream(), GOLDEN)
        print(f"wrote {path} ({len(load_stream(path))} events)")
    else:
        print(__doc__)
