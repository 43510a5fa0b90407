"""Checkpoint format unit tests: round-trip, atomicity, version refusal."""

import json

import numpy as np
import pytest

from repro.ckpt import (
    FORMAT_VERSION,
    Checkpoint,
    CheckpointError,
    CheckpointManager,
    describe,
    load_checkpoint,
    write_checkpoint,
)


def make_ckpt():
    meta = {
        "format_version": FORMAT_VERSION,
        "next_epoch": 3,
        "time": 12.5,
        "sync": "osp",
        "mode": "numeric",
        "n_workers": 2,
        "iterations_per_epoch": 4,
        "alive": [0, 1],
        "plan": {"n_epochs": 4, "lr": 0.1, "momentum": 0.9, "weight_decay": 0.0, "seed": 0},
        "recorder": {"epochs": [], "iterations": [], "counters": {"ckpt.save": 1}},
        "ics": {"policy": "drain", "discarded_bytes": 0.0},
    }
    arrays = {
        "ps/params": np.arange(8, dtype=np.float64),
        "sync/lgp_ema/0/w": np.ones(4),
    }
    return Checkpoint(meta=meta, arrays=arrays)


def test_write_load_round_trip(tmp_path):
    ckpt = make_ckpt()
    path = write_checkpoint(ckpt, tmp_path / "ckpt-epoch0003.npz")
    loaded = load_checkpoint(path)
    assert loaded.meta == ckpt.meta
    assert set(loaded.arrays) == set(ckpt.arrays)
    for key in ckpt.arrays:
        assert np.array_equal(loaded.arrays[key], ckpt.arrays[key])
    assert loaded.next_epoch == 3
    assert loaded.time == 12.5
    assert list(loaded.sync_arrays()) == ["lgp_ema/0/w"]


def test_write_is_atomic_no_tmp_debris(tmp_path):
    path = write_checkpoint(make_ckpt(), tmp_path / "ckpt-epoch0001.npz")
    assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]


def test_overwrite_replaces_whole_file(tmp_path):
    target = tmp_path / "ckpt-epoch0001.npz"
    write_checkpoint(make_ckpt(), target)
    second = make_ckpt()
    second.meta["next_epoch"] = 9
    write_checkpoint(second, target)
    assert load_checkpoint(target).next_epoch == 9


def test_version_mismatch_refused(tmp_path):
    ckpt = make_ckpt()
    ckpt.meta["format_version"] = FORMAT_VERSION + 98
    path = write_checkpoint(ckpt, tmp_path / "ckpt-epoch0001.npz")
    with pytest.raises(CheckpointError, match=r"format_version must be an integer in \[2, 2\], got 100"):
        load_checkpoint(path)


def test_non_checkpoint_npz_refused(tmp_path):
    path = tmp_path / "not-a-ckpt.npz"
    with open(path, "wb") as f:
        np.savez(f, stuff=np.zeros(3))
    with pytest.raises(CheckpointError, match="not a repro checkpoint"):
        load_checkpoint(path)


def test_describe_summarises(tmp_path):
    info = describe(make_ckpt())
    assert info["format_version"] == FORMAT_VERSION
    assert info["next_epoch"] == 3
    assert info["counters"] == {"ckpt.save": 1}
    assert info["arrays"]["ps/params"] == {"size": 8, "dtype": "float64"}
    json.dumps(info)  # must stay JSON-serialisable for `ckpt inspect --json`


def test_manager_validates_inputs(tmp_path):
    with pytest.raises(ValueError):
        CheckpointManager(object(), every=0, directory=tmp_path)
    with pytest.raises(ValueError):
        CheckpointManager(object(), every=2, directory=tmp_path, policy="teleport")


def test_manager_due_and_paths(tmp_path):
    mgr = CheckpointManager(object(), every=2, directory=tmp_path)
    assert [e for e in range(6) if mgr.due(e)] == [1, 3, 5]
    assert mgr.checkpoint_path(1).name == "ckpt-epoch0002.npz"
