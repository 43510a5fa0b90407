"""Unit tests for the span tracer core (repro.obs.tracer)."""

import pytest

from repro.obs.tracer import NULL_TRACER, Histogram, NullTracer, Span, Tracer
from repro.simcore.environment import Environment


def make_tracer():
    env = Environment()
    tracer = Tracer(env)
    env.tracer = tracer
    return env, tracer


# -- spans -------------------------------------------------------------------
def test_begin_end_records_interval():
    env, tracer = make_tracer()
    span = tracer.begin("compute", "worker 0", worker=0, iteration=3)

    def step():
        yield env.timeout(2.5)

    env.process(step())
    env.run()
    tracer.end(span, loss=1.25)
    assert span.start == 0.0
    assert span.end == 2.5
    assert span.duration == 2.5
    assert span.worker == 0 and span.iteration == 3
    assert span.attrs["loss"] == 1.25


def test_end_twice_raises():
    _env, tracer = make_tracer()
    span = tracer.begin("x", "a")
    tracer.end(span)
    with pytest.raises(RuntimeError, match="already ended"):
        tracer.end(span)


def test_nesting_within_one_context():
    _env, tracer = make_tracer()
    outer = tracer.begin("iteration", "worker 0")
    inner = tracer.begin("compute", "worker 0")
    assert inner.parent == outer.sid
    tracer.end(inner)
    tracer.end(outer)
    assert outer.parent is None


def test_interleaved_processes_do_not_cross_parent():
    """Two workers yielding between begin/end must each nest under their
    own iteration span, not the other process's innermost span."""
    env, tracer = make_tracer()
    inners: dict[int, Span] = {}
    outers: dict[int, Span] = {}

    def worker(w, delay):
        outers[w] = tracer.begin("iteration", f"worker {w}", worker=w)
        yield env.timeout(delay)
        inners[w] = tracer.begin("compute", f"worker {w}", worker=w)
        yield env.timeout(1.0)
        tracer.end(inners[w])
        tracer.end(outers[w])

    env.process(worker(0, 0.5))
    env.process(worker(1, 0.25))
    env.run()
    for w in (0, 1):
        assert inners[w].parent == outers[w].sid
    assert all(s.end is not None for s in tracer.spans)


def test_span_context_manager():
    _env, tracer = make_tracer()
    with tracer.span("lgp_correction", "worker 1", eq=6) as s:
        assert s.end is None
    assert s.end is not None
    assert s.attrs["eq"] == 6


def test_explicit_parent_overrides_stack():
    _env, tracer = make_tracer()
    a = tracer.begin("a", "x")
    b = tracer.begin("b", "x")
    c = tracer.begin("c", "x", parent=a)
    assert c.parent == a.sid
    assert b.parent == a.sid


def test_spans_named_view():
    _env, tracer = make_tracer()
    tracer.end(tracer.begin("rs_push", "w"))
    tracer.end(tracer.begin("rs_pull", "w"))
    tracer.end(tracer.begin("rs_push", "w"))
    assert len(tracer.spans_named("rs_push")) == 2
    assert len(tracer.spans_named("rs_push", "rs_pull")) == 3


# -- counters / traffic ------------------------------------------------------
def test_gauge_and_delta_track_running_value():
    env, tracer = make_tracer()
    tracer.gauge("osp.sgu_budget", 100.0)
    tracer.gauge_delta("osp.sgu_budget", 50.0)
    tracer.gauge_delta("osp.sgu_budget", -25.0)
    assert tracer.gauge_value("osp.sgu_budget") == 125.0
    samples = tracer.counters["osp.sgu_budget"]
    assert [v for _t, v in samples] == [100.0, 150.0, 125.0]
    assert all(t == env.now for t, _v in samples)


def test_gauge_delta_starts_at_zero():
    _env, tracer = make_tracer()
    tracer.gauge_delta("osp.inflight_ics_bytes", 1)
    assert tracer.gauge_value("osp.inflight_ics_bytes") == 1.0
    assert tracer.gauge_value("never.sampled") == 0.0


def test_traffic_accounting():
    _env, tracer = make_tracer()
    sizes = {"layer0": 50, "layer1": 5, "layer2": 7}
    tracer.add_traffic("rs", ("layer0",), {"layer0": 100})
    tracer.add_traffic("rs", ("layer0",), sizes)
    tracer.add_traffic("ics", ("layer1",), sizes, moves=2)
    assert tracer.traffic[("rs", "layer0")] == 150.0
    stage_bytes = {}
    for (stage, _layer), nbytes in tracer.traffic.items():
        stage_bytes[stage] = stage_bytes.get(stage, 0.0) + nbytes
    assert stage_bytes == {"rs": 150.0, "ics": 10.0}
    # Repeated uses of one layer tuple are counted, and read out per layer
    # in first-use order with the running sum's exact value.
    for _ in range(3):
        tracer.add_traffic("ics", ("layer2", "layer1"), sizes, moves=2)
    assert list(tracer.traffic) == [("rs", "layer0"), ("ics", "layer1"), ("ics", "layer2")]
    assert tracer.traffic[("ics", "layer1")] == 10.0 + 3 * 10.0
    assert tracer.traffic[("ics", "layer2")] == 3 * 14.0


def test_instants_record_time_and_attrs():
    _env, tracer = make_tracer()
    inst = tracer.instant("faults.link_flap", actor="faults", track="faults", n=2)
    assert inst.time == 0.0
    assert inst.attrs == {"n": 2}
    assert tracer.instants == [inst]


# -- Histogram ----------------------------------------------------------------
def test_histogram_summary_keys_and_empty():
    h = Histogram("bst")
    empty = h.summary()
    assert set(empty) == {"count", "mean", "p50", "p90", "p99", "max"}
    assert empty["count"] == 0.0 and empty["max"] == 0.0
    for v in range(1, 101):
        h.observe(float(v))
    s = h.summary()
    assert s["count"] == 100.0
    assert s["p50"] == pytest.approx(50.5)
    assert s["max"] == 100.0
    assert h.percentile(0) == 1.0


def test_histogram_rejects_bad_percentile():
    with pytest.raises(ValueError):
        Histogram().percentile(101)


# -- NullTracer ---------------------------------------------------------------
def test_null_tracer_is_falsy_and_inert():
    assert not NULL_TRACER
    assert not NullTracer()
    span = NULL_TRACER.begin("x", "y")
    NULL_TRACER.end(span)  # must not raise, even repeatedly
    NULL_TRACER.end(span)
    with NULL_TRACER.span("x", "y") as s:
        assert s is span
    NULL_TRACER.instant("e")
    NULL_TRACER.gauge("g", 1.0)
    NULL_TRACER.gauge_delta("g", 1.0)
    NULL_TRACER.add_traffic("rs", "l", 1.0)


def test_real_tracer_is_truthy():
    _env, tracer = make_tracer()
    assert tracer
