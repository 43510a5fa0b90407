"""Tests for the recorder's plain-dict form (what a checkpoint stores)."""

import json

import pytest

from repro.metrics.export import recorder_from_dict, recorder_to_dict
from repro.metrics.recorder import EpochRecord, IterationRecord, Recorder


def make_recorder():
    rec = Recorder()
    rec.record_iteration(
        IterationRecord(
            worker=0, iteration=0, start_time=0.0, compute_time=1.0,
            sync_time=0.5, loss=2.0, samples=64,
        )
    )
    rec.record_epoch(
        EpochRecord(epoch=0, time=1.5, train_loss=2.0, metric=0.4, iterations_done=1)
    )
    return rec


def test_roundtrip_dict():
    rec = make_recorder()
    clone = recorder_from_dict(recorder_to_dict(rec))
    assert clone.iterations == rec.iterations
    assert clone.epochs == rec.epochs


def test_summary_present_and_consistent():
    d = recorder_to_dict(make_recorder())
    assert d["summary"]["total_iterations"] == 1
    assert d["summary"]["best_metric"] == pytest.approx(0.4)
    assert d["summary"]["throughput"] == pytest.approx(64 / 1.5)


def test_dict_is_json_serialisable():
    json.dumps(recorder_to_dict(make_recorder()))


def _json_roundtrip(rec):
    return recorder_from_dict(json.loads(json.dumps(recorder_to_dict(rec))))


def test_empty_recorder_roundtrip():
    assert _json_roundtrip(Recorder()).total_iterations == 0


def test_from_dict_tolerates_missing_sections():
    rec = recorder_from_dict({})
    assert rec.total_iterations == 0


def test_real_run_roundtrips():
    """End-to-end: a real trainer's recorder survives the JSON roundtrip."""
    from repro.cluster import (
        ClusterSpec,
        DistributedTrainer,
        TimingEngine,
        TrainingPlan,
    )
    from repro.hardware import NoJitter
    from repro.nn.models import get_card
    from repro.sync import BSP

    spec = ClusterSpec(n_workers=2, jitter=NoJitter())
    plan = TrainingPlan(n_epochs=1, iterations_per_epoch=2)
    engine = TimingEngine(get_card("resnet50-cifar10"), spec, total_iterations=2)
    res = DistributedTrainer(spec, plan, engine, BSP()).run()
    loaded = _json_roundtrip(res.recorder)
    assert loaded.iterations == res.recorder.iterations
    assert loaded.throughput() == pytest.approx(res.recorder.throughput())
    assert loaded.mean_bst() == pytest.approx(res.recorder.mean_bst())


def test_every_counter_of_an_osp_run_roundtrips_exactly():
    """Byte counters are floats: `netsim.prio_bytes.urgent` (the GIB
    broadcasts) read 28.00000009628434 here and came back as 28."""
    from repro.core import OSP
    from repro.harness.workloads import WorkloadConfig, timing_trainer

    cfg = WorkloadConfig("resnet50-cifar10", n_workers=4, n_epochs=2, iterations_per_epoch=2)
    rec = timing_trainer(cfg, OSP()).run().recorder
    assert any(isinstance(v, float) for v in rec.counters.values())
    back = _json_roundtrip(rec)
    assert back.counters == rec.counters
    assert [type(v) for v in back.counters.values()] == [type(v) for v in rec.counters.values()]


@pytest.mark.parametrize("value", ["12", True, None, [1]])
def test_from_dict_refuses_a_counter_that_is_not_a_number(value):
    from repro.metrics.export import ExportError

    with pytest.raises(ExportError, match=r"recorder: counters\['osp.degraded_quorum'\] must be a real in \(-inf, inf\), got "):
        recorder_from_dict({"counters": {"osp.degraded_quorum": value}})


def test_from_dict_rejects_unknown_fields():
    from repro.metrics.export import ExportError

    payload = recorder_to_dict(make_recorder())
    payload["iterations"][0]["bogus"] = 1
    with pytest.raises(ExportError, match=r"recorder: iterations\[0\].bogus is not a known key; expected worker, "):
        recorder_from_dict(payload)


def test_from_dict_rejects_missing_fields():
    from repro.metrics.export import ExportError

    payload = recorder_to_dict(make_recorder())
    del payload["epochs"][0]["metric"]
    with pytest.raises(ExportError, match=r"recorder: epochs\[0\].metric is missing"):
        recorder_from_dict(payload)


def test_from_dict_rejects_non_object_record():
    from repro.metrics.export import ExportError

    with pytest.raises(ExportError, match=r"recorder: iterations\[0\] must be an object, got \[1, 2, 3\]"):
        recorder_from_dict({"iterations": [[1, 2, 3]]})


def test_export_error_is_a_value_error():
    from repro.metrics.export import ExportError

    assert issubclass(ExportError, ValueError)
