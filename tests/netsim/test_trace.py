"""Tests for Chrome-trace export of flow records and worker timelines."""

import json

import pytest

from repro.cluster import ClusterSpec, DistributedTrainer, TimingEngine, TrainingPlan
from repro.hardware import NoJitter
from repro.nn.models import get_card
from repro.obs import Tracer, trace_document, tracer_to_trace_events, write_unified_trace
from repro.obs.chrome import flows_to_trace_events
from repro.simcore import Environment
from repro.sync import BSP


def run_small(traced=True):
    spec = ClusterSpec(n_workers=2, jitter=NoJitter())
    plan = TrainingPlan(n_epochs=1, iterations_per_epoch=2)
    engine = TimingEngine(get_card("resnet50-cifar10"), spec, total_iterations=2)
    trainer = DistributedTrainer(spec, plan, engine, BSP())
    if traced:
        trainer.enable_tracing()
    res = trainer.run()
    return trainer, res


def _worker_spans(res, name):
    return [
        e for e in trace_document(res)["traceEvents"]
        if e["ph"] == "X" and e["pid"] == "workers" and e["name"] == name
    ]


def test_flow_events_have_required_fields():
    trainer, _res = run_small()
    events = flows_to_trace_events(trainer.network.records)
    assert events
    for ev in events:
        assert ev["ph"] == "X"
        assert ev["dur"] >= 1.0
        assert "bytes" in ev["args"]


def test_iteration_events_pair_compute_and_sync():
    _trainer, res = run_small()
    computes, syncs = _worker_spans(res, "compute"), _worker_spans(res, "sync")
    assert len(computes) == len(syncs) == res.recorder.total_iterations
    key = lambda e: (e["args"]["worker"], e["args"]["iteration"])  # noqa: E731
    assert sorted(map(key, computes)) == sorted(map(key, syncs))


def test_iteration_events_are_contiguous():
    _trainer, res = run_small()
    syncs = {
        (e["args"]["worker"], e["args"]["iteration"]): e
        for e in _worker_spans(res, "sync")
    }
    for c in _worker_spans(res, "compute"):
        s = syncs[c["args"]["worker"], c["args"]["iteration"]]
        assert s["tid"] == c["tid"]
        assert s["ts"] == pytest.approx(c["ts"] + c["dur"])


def test_empty_inputs_produce_empty_trace():
    assert flows_to_trace_events([]) == []
    assert tracer_to_trace_events(Tracer(Environment())) == []


def test_untraced_run_is_refused(tmp_path):
    _trainer, res = run_small(traced=False)
    path = tmp_path / "trace.json"
    with pytest.raises(ValueError, match=r"enable_tracing\(\)"):
        write_unified_trace(path, res)
    assert not path.exists()


def test_out_of_order_records_are_sorted_in_file(tmp_path):
    trainer, res = run_small()
    # Reverse the fabric's records: the file must still come out time-ordered.
    trainer.network.records.reverse()
    path = tmp_path / "trace.json"
    write_unified_trace(path, res)
    events = json.loads(path.read_text())["traceEvents"]
    ts = [e["ts"] for e in events]
    assert ts == sorted(ts)


def test_trace_event_schema(tmp_path):
    """Every event carries the Trace Event Format required fields with
    the right types (Perfetto rejects malformed ones silently)."""
    _trainer, res = run_small()
    path = tmp_path / "trace.json"
    write_unified_trace(path, res)
    events = json.loads(path.read_text())["traceEvents"]
    assert events
    for ev in events:
        assert ev["ph"] in {"X", "C", "i"}
        assert isinstance(ev["name"], str) and ev["name"]
        assert isinstance(ev["ts"], float) and ev["ts"] >= 0.0
        assert isinstance(ev["pid"], str)
        assert isinstance(ev["tid"], str)
        if ev["ph"] == "X":
            assert isinstance(ev["dur"], float) and ev["dur"] >= 1.0


def test_flow_events_carry_structured_phase_args():
    trainer, _res = run_small()
    events = flows_to_trace_events(trainer.network.records)
    tagged = [e for e in events if "phase" in e["args"]]
    assert tagged, "conventional (phase, worker, iteration) tags not parsed"
    for ev in tagged:
        assert ev["args"]["phase"] in {"bsp-push", "bsp-pull"}
        assert isinstance(ev["args"]["worker"], int)
        assert isinstance(ev["args"]["iteration"], int)


def test_untupled_tags_do_not_gain_phase_args():
    from repro.obs.chrome import _tag_args

    assert _tag_args(None) == {}
    assert _tag_args("plain-string") == {}
    assert _tag_args(("phase-only",)) == {"phase": "phase-only"}
    assert _tag_args((1, 2)) == {}
