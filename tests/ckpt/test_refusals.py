"""A checkpoint that cannot be restored is refused with a CheckpointError —
before any trainer state is written — and both CLI entry points turn it
into exit code 1 and one ``error:`` line."""

import math
import re
import shutil

import numpy as np
import pytest

from repro.ckpt import CheckpointError, apply_checkpoint, load_checkpoint, write_checkpoint
from repro.cli import _build_trainer, build_parser, main

RUN = [
    "run", "--mode", "numeric", "--sync", "osp", "--workers", "2", "--epochs", "2",
    "--samples", "100", "--checkpoint-every", "1",
]  # fmt: skip


@pytest.fixture(scope="module")
def good(tmp_path_factory):
    ckpt_dir = tmp_path_factory.mktemp("good")
    assert main([*RUN, "--checkpoint-dir", str(ckpt_dir)]) == 0
    return ckpt_dir / "ckpt-epoch0001.npz"


def _truncate(path):
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


def _not_a_zip(path):
    path.write_text("epoch 1: loss 2.30\n")


def _rewritten(edit):
    def mutate(path):
        ckpt = load_checkpoint(path)
        edit(ckpt)
        write_checkpoint(ckpt, path)

    return mutate


def _drop_velocity(ckpt):
    del ckpt.arrays["ps/velocity"]


def _short_replica(ckpt):
    ckpt.arrays["replica/1"] = ckpt.arrays["replica/1"][:-7]


def _float32_params(ckpt):
    ckpt.arrays["ps/params"] = ckpt.arrays["ps/params"].astype(np.float32)


def _version_1(ckpt):
    # A v1 file also carried the membership schedules, now read from the spec.
    ckpt.meta["format_version"] = 1
    ckpt.meta["failure_schedule"] = ckpt.meta["restart_schedule"] = {}


def _wrong_sync(ckpt):
    ckpt.meta["sync"] = "bsp"


def _drop_meta(key):
    return _rewritten(lambda ckpt: ckpt.meta.pop(key))


def _set_meta(key, value):
    """Set the metadata value at ``key``, written as a refusal names it
    (``recorder.iterations[0].loss``, ``recorder.counters['a.b']``)."""
    path = [
        quoted or plain or int(index)
        for quoted, index, plain in re.findall(r"\['([^']*)'\]|\[(\d+)\]|([^.\[]+)", key)
    ]

    def edit(ckpt):
        holder = ckpt.meta
        for part in path[:-1]:
            holder = holder[part]
        holder[path[-1]] = value

    return _rewritten(edit)


def _one_jitter_stream(ckpt):
    ckpt.meta["jitter"]["streams"] = ckpt.meta["jitter"]["streams"][:1]


_WORKERS = r"a non-empty list of distinct workers in range\(2\)"
_INDICES = r"a sequence, each an integer in \[0, inf\)"
_INTEGER = r"an integer in \(-inf, inf\)"
_REAL = r"a real in \(-inf, inf\)"
_EPOCHS = r"the number of recorded epochs \(1\), at least 1"

#: A hand-edited metadata value: (key, value, does the file still load,
#: what it must be). A wrong type is refused on load; a value of the right
#: type that this run cannot have reached (the fixture is at epoch 1 of 2,
#: two workers) is refused when it is applied.
META_EDITS = {
    "alive-unknown-worker": ("alive", [99], True, _WORKERS),
    "alive-empty": ("alive", [], True, _WORKERS),
    "alive-too-many": ("alive", [0, 1, 2], True, _WORKERS),
    "alive-repeated": ("alive", [1, 1], True, _WORKERS),
    "alive-bool": ("alive", [True, 1], False, _INDICES),
    "alive-int": ("alive", 5, False, _INDICES),
    "alive-string": ("alive", ["a"], False, _INDICES),
    "next-epoch-negative": ("next_epoch", -1, True, _EPOCHS),
    "next-epoch-ahead": ("next_epoch", 2, True, _EPOCHS),
    "next-epoch-string": ("next_epoch", "1", False, _INTEGER),
    "time-negative": ("time", -5, True, r"no earlier than the last recorded epoch \([\d.]+\)"),
    "time-string": ("time", "x", False, _REAL),
    "time-nan": ("time", math.nan, False, _REAL),
    "release-order-repeated": (
        "release_order", [0, 0], True,
        r"null or a list of distinct workers in range\(2\)",
    ),
    "recorder-list": ("recorder", [], False, "an object"),
    "ics-list": ("ics", [], False, "an object"),
    "early-stop-string": (
        "early_stop.epochs_since_improvement", "0", False, r"an integer in \[0, inf\)"
    ),
    # measured values: a wrong type, NaN or a negative byte count
    "recorder-iteration-string": (
        "recorder.iterations[0].compute_time", "abc", False, _REAL
    ),
    "recorder-iteration-float-worker": ("recorder.iterations[0].worker", 0.5, False, _INTEGER),
    "recorder-epoch-bool": ("recorder.epochs[0].time", True, False, _REAL),
    "recorder-counter-nan": ("recorder.counters['osp.budget']", math.nan, False, _REAL),
    "ics-discarded-nan": ("ics.discarded_bytes", math.nan, False, r"a real in \[0, inf\)"),
    "ics-discarded-negative": ("ics.discarded_bytes", -1.0, False, r"a real in \[0, inf\)"),
    "best-metric-nan": ("early_stop.best_metric", math.nan, False, r"a real in \[-inf, inf\)"),
    "best-metric-inf": ("early_stop.best_metric", math.inf, False, r"a real in \[-inf, inf\)"),
}  # fmt: skip


#: every metadata key that is read without a default (was a ``KeyError``)
META_KEYS = (
    "next_epoch", "time", "sync", "mode", "n_workers", "iterations_per_epoch",
    "alive", "recorder", "plan",
)  # fmt: skip

#: A training-plan key of the checkpoint that differs from this run's: the
#: file loads, the resume is refused naming the key and both values.
PLAN_EDITS = {
    "plan-seed": ("seed", 7, r"plan\.seed is 7 in the checkpoint but 0 in this run"),
    "plan-lr": ("lr", 0.5, r"plan\.lr is 0\.5 in the checkpoint but 0\.1 in this run"),
    "plan-momentum": (
        "momentum", 0.0, r"plan\.momentum is 0\.0 in the checkpoint but 0\.9 in this run"
    ),
    "plan-weight-decay": (
        "weight_decay", 1e-4,
        r"plan\.weight_decay is 0\.0001 in the checkpoint but 0\.0 in this run",
    ),
}  # fmt: skip

#: case -> (how to break a good file, does it still load, what the error says)
CASES = {
    **{
        f"no-meta-{key}": (_drop_meta(key), False, rf": {key} is missing")
        for key in META_KEYS
    },
    "version-1": (
        _rewritten(_version_1), False,
        r"format_version must be an integer in \[2, 2\], got 1",
    ),
    "truncated": (_truncate, False, r"not a readable checkpoint \(BadZipFile"),
    "not-a-zip": (_not_a_zip, False, r"not a readable checkpoint \(ValueError"),
    "missing-plane": (
        _rewritten(_drop_velocity), True,
        r"plane 'ps/velocity' is missing \(expected float64 of size \d+\)",
    ),
    "short-plane": (
        _rewritten(_short_replica), True,
        r"plane 'replica/1' is float64 of shape \(\d+,\) \(expected float64 of size \d+\)",
    ),
    "float32-plane": (
        _rewritten(_float32_params), True,
        r"plane 'ps/params' is float32 of shape \(\d+,\) \(expected float64 of size \d+\)",
    ),
    "wrong-sync": (_rewritten(_wrong_sync), True, r"written by sync model 'bsp', not 'osp'"),
    "jitter-streams": (
        _rewritten(_one_jitter_stream), True,
        r"metadata key 'jitter': jitter state has 1 streams; model has \d+",
    ),
    **{
        case: (_set_meta(key, value), loads, rf": {re.escape(key)} must be {must}, got ")
        for case, (key, value, loads, must) in META_EDITS.items()
    },
    **{
        case: (_set_meta(f"plan.{key}", value), True, message)
        for case, (key, value, message) in PLAN_EDITS.items()
    },
    "plan-seed-bool": (
        _set_meta("plan.seed", True), False, r": plan\.seed must be an integer in \[0, inf\), got "
    ),
}  # fmt: skip


def _state(trainer):
    """Everything ``apply_checkpoint`` writes, copied."""
    ps, engine, ctx = trainer.ps, trainer.engine, trainer.ctx
    return {
        "params": ps.snapshot(),
        "velocity": {n: v.copy() for n, v in ps.optimizer.velocity.items()},
        "aggregate": {n: g.copy() for n, g in ps.last_aggregated.items()},
        "replicas": [
            {n: a.copy() for n, a in engine.worker_params(w).items()}
            for w in range(trainer.spec.n_workers)
        ],
        "lr": ps.optimizer.lr,
        "start_epoch": ctx.start_epoch,
        "counters": dict(trainer.recorder.counters),
        "iterations": len(trainer.recorder.iterations),
    }


def _one_error_line(stderr, message):
    lines = stderr.splitlines()
    assert len(lines) == 1, stderr
    assert lines[0].startswith("error: ")
    assert re.search(message, lines[0]), stderr


@pytest.mark.parametrize("case", CASES)
def test_bad_checkpoint_is_refused_by_api_and_cli(case, good, tmp_path, capsys):
    mutate, loads, message = CASES[case]
    bad = tmp_path / "bad.npz"
    shutil.copy(good, bad)
    mutate(bad)

    # API: CheckpointError, and the trainer is exactly as it was built.
    trainer = _build_trainer(build_parser().parse_args(RUN), "osp")
    before = _state(trainer)
    with pytest.raises(CheckpointError, match=message) as refused:
        apply_checkpoint(trainer, load_checkpoint(bad))
    if case != "wrong-sync":  # a metadata mismatch is about the run, not the file
        assert str(bad) in str(refused.value)
    np.testing.assert_equal(_state(trainer), before)
    if loads:  # ... while the good file does restore into the same trainer
        apply_checkpoint(trainer, load_checkpoint(good))
        assert trainer.ctx.start_epoch == 1 and trainer.ps.last_aggregated

    # `repro ckpt inspect`: unreadable is an error; readable is summarised.
    capsys.readouterr()
    code = main(["ckpt", "inspect", str(bad)])
    captured = capsys.readouterr()
    if loads:
        assert code == 0 and "arrays" in captured.out
    else:
        assert code == 1 and not captured.out
        _one_error_line(captured.err, message)

    # `repro run --resume`
    code = main([*RUN, "--checkpoint-dir", str(tmp_path / "out"), "--resume", str(bad)])
    captured = capsys.readouterr()
    assert code == 1 and not captured.out
    _one_error_line(captured.err, message)


def test_a_resume_under_another_seed_is_refused(good, tmp_path, capsys):
    out = ["--checkpoint-dir", str(tmp_path / "out"), "--resume", str(good)]
    capsys.readouterr()
    assert main([*RUN, "--seed", "7", *out]) == 1
    captured = capsys.readouterr()
    assert not captured.out
    _one_error_line(
        captured.err, rf"{re.escape(str(good))}: plan\.seed is 0 in the checkpoint but 7 in this run"
    )


def test_a_resume_may_run_more_epochs(good, tmp_path, capsys):
    argv = [*RUN, "--epochs", "3", "--checkpoint-dir", str(tmp_path), "--resume", str(good)]
    assert main(argv) == 0


def test_sync_state_key_missing_from_an_older_checkpoint(tmp_path, capsys):
    """Before SSP carried its progress vector a checkpoint had no such key;
    resuming that file names the key instead of raising ``KeyError``."""
    run = [
        "run", "--sync", "ssp", "--workers", "2", "--epochs", "2", "--iterations", "2",
        "--checkpoint-every", "1",
    ]  # fmt: skip
    assert main([*run, "--checkpoint-dir", str(tmp_path)]) == 0
    old = tmp_path / "ckpt-epoch0001.npz"
    _rewritten(lambda ckpt: ckpt.meta["sync_state"].clear())(old)
    capsys.readouterr()
    code = main([*run, "--checkpoint-dir", str(tmp_path / "out"), "--resume", str(old)])
    captured = capsys.readouterr()
    assert code == 1 and not captured.out
    _one_error_line(captured.err, rf"{re.escape(str(old))}: sync-model state key 'progress' is missing")
