"""Tests for Chrome-trace export."""

import json

from repro.cluster import ClusterSpec, DistributedTrainer, TimingEngine, TrainingPlan
from repro.hardware import NoJitter
from repro.netsim.trace import flows_to_trace_events, iterations_to_trace_events
from repro.nn.models import get_card
from repro.obs import write_unified_trace
from repro.sync import BSP


def run_small():
    spec = ClusterSpec(n_workers=2, jitter=NoJitter())
    plan = TrainingPlan(n_epochs=1, iterations_per_epoch=2)
    engine = TimingEngine(get_card("resnet50-cifar10"), spec, total_iterations=2)
    trainer = DistributedTrainer(spec, plan, engine, BSP())
    res = trainer.run()
    return trainer, res


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
    events = iterations_to_trace_events(res.recorder.iterations)
    assert len(events) == 2 * res.recorder.total_iterations
    names = {e["name"].split()[0] for e in events}
    assert names == {"compute", "sync"}


def test_iteration_events_are_contiguous():
    _trainer, res = run_small()
    events = iterations_to_trace_events(res.recorder.iterations)
    by_tid = {}
    for e in events:
        by_tid.setdefault(e["tid"], []).append(e)
    for tid, evs in by_tid.items():
        evs.sort(key=lambda e: e["ts"])
        for a, b in zip(evs, evs[1:]):
            assert b["ts"] >= a["ts"] + a["dur"] - 2  # 2us rounding slack


def test_empty_inputs_produce_empty_trace(tmp_path):
    assert flows_to_trace_events([]) == []
    assert iterations_to_trace_events([]) == []
    path = tmp_path / "empty.json"
    assert write_unified_trace(path) == 0
    assert json.loads(path.read_text())["traceEvents"] == []


def test_out_of_order_records_are_sorted_in_file(tmp_path):
    trainer, res = run_small()
    path = tmp_path / "trace.json"
    # Feed records in reverse: the file must still come out time-ordered.
    write_unified_trace(
        path,
        flow_records=list(reversed(trainer.network.records)),
        iteration_records=list(reversed(res.recorder.iterations)),
    )
    events = json.loads(path.read_text())["traceEvents"]
    ts = [e["ts"] for e in events]
    assert ts == sorted(ts)


def test_trace_event_schema(tmp_path):
    """Every event carries the Trace Event Format required fields with
    the right types (Perfetto rejects malformed ones silently)."""
    trainer, res = run_small()
    path = tmp_path / "trace.json"
    write_unified_trace(
        path,
        flow_records=trainer.network.records,
        iteration_records=res.recorder.iterations,
    )
    events = json.loads(path.read_text())["traceEvents"]
    assert events
    for ev in events:
        assert ev["ph"] == "X"
        assert isinstance(ev["name"], str) and ev["name"]
        assert isinstance(ev["ts"], float) and ev["ts"] >= 0.0
        assert isinstance(ev["dur"], float) and ev["dur"] >= 1.0
        assert isinstance(ev["pid"], str)
        assert isinstance(ev["tid"], str)


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
    from repro.netsim.trace import _tag_args

    assert _tag_args(None) == {}
    assert _tag_args("plain-string") == {}
    assert _tag_args(("phase-only",)) == {"phase": "phase-only"}
    assert _tag_args((1, 2)) == {}
