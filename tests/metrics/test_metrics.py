"""Unit tests for the metric recorder and report formatting."""

import pytest

from repro.metrics import (
    EpochRecord,
    IterationRecord,
    Recorder,
    format_series,
    format_table,
)


def iter_rec(worker=0, iteration=0, start=0.0, compute=1.0, sync=0.5, loss=2.0, samples=64):
    return IterationRecord(
        worker=worker,
        iteration=iteration,
        start_time=start,
        compute_time=compute,
        sync_time=sync,
        loss=loss,
        samples=samples,
    )


def epoch_rec(epoch=0, time=10.0, loss=1.0, metric=0.5, iters=10):
    return EpochRecord(
        epoch=epoch, time=time, train_loss=loss, metric=metric, iterations_done=iters
    )


def test_empty_recorder_defaults():
    r = Recorder()
    assert r.throughput() == 0.0
    assert r.mean_bst() == 0.0
    assert r.mean_bct() == 0.0
    assert r.best_metric() == 0.0
    assert r.end_time() == 0.0
    assert r.communication_share() == 0.0
    assert r.time_to_accuracy() == []


def test_throughput_and_end_time():
    r = Recorder()
    r.record_iteration(iter_rec(start=0.0))
    r.record_iteration(iter_rec(start=1.5, iteration=1))
    assert r.end_time() == pytest.approx(3.0)
    assert r.total_samples == 128
    assert r.throughput() == pytest.approx(128 / 3.0)


def test_bst_bct_means():
    r = Recorder()
    r.record_iteration(iter_rec(compute=1.0, sync=0.5))
    r.record_iteration(iter_rec(compute=3.0, sync=1.5, iteration=1))
    assert r.mean_bct() == pytest.approx(2.0)
    assert r.mean_bst() == pytest.approx(1.0)
    assert r.communication_share() == pytest.approx(1.0 / 3.0)
    assert r.mean_iteration_time() == pytest.approx(3.0)


def test_best_metric_and_iterations_to_best():
    r = Recorder()
    r.record_epoch(epoch_rec(0, 10, metric=0.3, iters=8))
    r.record_epoch(epoch_rec(1, 20, metric=0.9, iters=16))
    r.record_epoch(epoch_rec(2, 30, metric=0.7, iters=24))
    assert r.best_metric() == 0.9
    assert r.iterations_to_best() == 16


def time_to_reach(recorder: Recorder, target: float) -> float | None:
    """Virtual time the metric first reached ``target`` (None if never)."""
    return next((e.time for e in recorder.epochs if e.metric >= target), None)


def test_time_to_accuracy_and_time_to_reach():
    r = Recorder()
    r.record_epoch(epoch_rec(0, 10, metric=0.3))
    r.record_epoch(epoch_rec(1, 20, metric=0.8))
    assert r.time_to_accuracy() == [(10.0, 0.3), (20.0, 0.8)]
    assert time_to_reach(r, 0.5) == 20.0
    assert time_to_reach(r, 0.95) is None


def test_format_table_alignment_and_title():
    out = format_table(["a", "bb"], [(1, "xy"), (22, "z")], title="T")
    lines = out.splitlines()
    assert lines[0] == "T"
    assert "a" in lines[1] and "bb" in lines[1]
    assert len(lines) == 5


def test_format_table_rejects_ragged_rows():
    with pytest.raises(ValueError):
        format_table(["a"], [(1, 2)])


def test_format_table_float_formatting():
    out = format_table(["x"], [(1.23456789,)])
    assert "1.235" in out


def test_format_series_subsamples_long_curves():
    pts = [(float(i), float(i)) for i in range(200)]
    out = format_series("s", pts, max_points=10)
    assert out.count("(") <= 12
    assert "(199," in out  # last point always kept


def test_format_series_short_curve_kept_whole():
    pts = [(0.0, 1.0), (1.0, 2.0)]
    out = format_series("curve", pts)
    assert out.count("(") == 2
