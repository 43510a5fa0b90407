"""Cross-run regression diffing: attribution correctness and verdicts."""

import json
import re

import pytest

from repro.core.osp import OSP
from repro.faults import BandwidthDip, FaultSchedule, StragglerSlowdown
from repro.harness.workloads import WorkloadConfig, timing_trainer
from repro.obs import compare_runs, trace_document
from repro.obs.compare import CAUSAL_PHASES, PHASE_GROUPS, PHASES, _phase_times


def _cfg(**kw):
    defaults = dict(
        card_name="vgg16-cifar10",
        n_workers=4,
        n_epochs=3,
        iterations_per_epoch=6,
        sigma=0.1,
        seed=7,
    )
    defaults.update(kw)
    return WorkloadConfig(**defaults)


def _trace(faults=None):
    trainer = timing_trainer(_cfg(faults=faults), OSP())
    trainer.enable_sampling()
    result = trainer.run()
    return trace_document(result)


@pytest.fixture(scope="module")
def baseline():
    return _trace()


def test_summary_schema_and_round_trip(tmp_path, baseline):
    phases, workers = _phase_times(baseline)
    assert set(PHASES) == set(phases)
    assert sorted(workers) == [0, 1, 2, 3]
    # A path is read through read_trace and compares equal to the document.
    path = tmp_path / "a.json"
    path.write_text(json.dumps(baseline))
    rep = compare_runs(baseline, path)
    assert rep.as_dict() == compare_runs(baseline, baseline).as_dict()
    bogus = tmp_path / "bogus.json"
    bogus.write_text('{"schema": "nope"}')
    with pytest.raises(ValueError, match="schema is not a known key; expected traceEvents"):
        compare_runs(baseline, bogus)


def test_a_trace_without_its_wall_time_is_refused_naming_which(tmp_path, baseline):
    old = json.loads(json.dumps(baseline))
    del old["otherData"]["wallTime"]
    path = tmp_path / "old.json"
    path.write_text(json.dumps(old))
    missing = "otherData.wallTime is missing, so the trace cannot be compared"
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {missing}"):
        compare_runs(baseline, path)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {missing}"):
        compare_runs(path, baseline)
    # documents have no file: the refusal says which argument it was
    with pytest.raises(ValueError, match=f"^trace a: {missing}"):
        compare_runs(old, baseline)
    with pytest.raises(ValueError, match=f"^trace b: {missing}"):
        compare_runs(baseline, old)


def test_identical_runs_verdict_ok(baseline):
    rep = compare_runs(baseline, _trace())
    assert rep.verdict == "ok"
    assert abs(rep.delta) < 1e-9
    assert all(abs(d) < 1e-9 for _a, _b, d in rep.phases.values())


def test_straggler_attributed_to_compute_and_worker(baseline):
    # One worker's compute slows 3x for most of the run. The barrier
    # equalizes everyone's iteration times, so naive span accounting would
    # smear the delta across all workers' waits — attribution must still
    # point at compute, on worker 2.
    faults = FaultSchedule(
        events=(StragglerSlowdown(worker=2, start=2.0, duration=120.0, factor=3.0),)
    )
    rep = compare_runs(baseline, _trace(faults))
    assert rep.verdict == "regression"
    assert rep.pct > 0.05
    assert rep.dominant_phase == "compute"
    assert rep.dominant_worker == 2
    # The straggler's own active-time delta dwarfs every other worker's.
    deltas = {w: d for w, (_a, _b, d) in rep.workers.items()}
    assert deltas[2] > 2 * max(abs(d) for w, d in deltas.items() if w != 2)


def test_bandwidth_dip_attributed_to_rs(baseline):
    # A cluster-wide dip slows the blocking RS transfers on every worker.
    faults = FaultSchedule(
        events=(BandwidthDip(start=2.0, duration=120.0, factor=0.25),)
    )
    rep = compare_runs(baseline, _trace(faults))
    assert rep.verdict == "regression"
    assert rep.dominant_phase == "rs"


def test_improvement_is_symmetric(baseline):
    faults = FaultSchedule(
        events=(StragglerSlowdown(worker=2, start=2.0, duration=120.0, factor=3.0),)
    )
    slow = _trace(faults)
    rep = compare_runs(slow, baseline)
    assert rep.verdict == "improvement"
    assert rep.pct < -0.05
    assert rep.dominant_phase == "compute"
    assert rep.dominant_worker == 2


def test_threshold_gates_verdict(baseline):
    other = baseline["otherData"]
    slow = dict(baseline, otherData=dict(other, wallTime=other["wallTime"] * 1.04))
    assert compare_runs(baseline, slow, max_slowdown=0.05).verdict == "ok"
    assert compare_runs(baseline, slow, max_slowdown=0.02).verdict == "regression"


def test_render_marks_dominants(baseline):
    faults = FaultSchedule(
        events=(StragglerSlowdown(worker=2, start=2.0, duration=120.0, factor=3.0),)
    )
    rep = compare_runs(baseline, _trace(faults))
    text = rep.render()
    assert "REGRESSION" in text
    assert "<- dominant" in text
    doc = rep.as_dict()
    assert doc["dominant_phase"] == "compute"
    assert doc["dominant_worker"] == 2
    assert set(doc["phases"]) == set(PHASES)
    assert set(CAUSAL_PHASES) < set(PHASES)


def test_trace_phases_match_the_spans_within_the_clamp():
    # The trace stores span durations in microseconds, clamped below at 1 us,
    # so each phase total read back from it is within 1 us per span of the
    # sum over the tracer's own spans.
    trainer = timing_trainer(_cfg(), OSP())
    tracer = trainer.enable_tracing()
    phases, _workers = _phase_times(trace_document(trainer.run()))
    spans = {p: 0.0 for p in PHASES}
    counts = {p: 0 for p in PHASES}
    for span in tracer.spans:
        phase = PHASE_GROUPS.get(span.name)
        if phase is not None:
            spans[phase] += span.end - span.start
            counts[phase] += 1
    assert counts["wait"] > 0
    for phase in PHASES:
        assert abs(phases[phase] - spans[phase]) <= 1e-6 * counts[phase] + 1e-9
