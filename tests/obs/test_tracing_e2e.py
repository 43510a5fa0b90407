"""End-to-end tracing: real traced runs, trace files, zero perturbation."""

import pytest

from repro.cluster import ClusterSpec, DistributedTrainer, TimingEngine, TrainingPlan
from repro.core import OSP
from repro.faults import BandwidthDip, FaultSchedule, StragglerSlowdown
from repro.hardware import NoJitter
from repro.nn.models import get_card
from repro.obs import read_trace, write_unified_trace
from repro.sync import BSP

pytestmark = pytest.mark.tier1


def make_trainer(sync, workers=3, epochs=4, ipe=4, faults=None):
    spec = ClusterSpec(n_workers=workers, jitter=NoJitter(), faults=faults)
    plan = TrainingPlan(n_epochs=epochs, iterations_per_epoch=ipe)
    engine = TimingEngine(
        get_card("resnet50-cifar10"), spec, total_iterations=epochs * ipe
    )
    return DistributedTrainer(spec, plan, engine, sync)


def traced_run(sync, **kwargs):
    trainer = make_trainer(sync, **kwargs)
    tracer = trainer.enable_tracing()
    res = trainer.run()
    assert res.tracer is tracer
    return trainer, res, tracer


# -- span coverage -------------------------------------------------------------
def test_traced_osp_covers_workers_and_ps():
    _trainer, res, tracer = traced_run(OSP(fixed_budget_fraction=0.5))
    worker_actors = {s.actor for s in tracer.spans if s.track == "workers"}
    assert len(worker_actors) >= 3  # ≥2 workers required; we run 3
    assert {s.name for s in tracer.spans if s.track == "ps"} >= {
        "ps_apply", "pgp_compute"
    }
    names = {s.name for s in tracer.spans}
    for required in (
        "iteration", "compute", "rs_push", "rs_barrier_wait", "rs_pull",
        "ics_push", "ics_pull",
    ):
        assert required in names, required
    assert len(tracer.spans_named("iteration")) == res.recorder.total_iterations
    assert all(s.end is not None for s in tracer.spans)


def test_traced_spans_nest_iteration_compute():
    _trainer, _res, tracer = traced_run(BSP(), workers=2, epochs=2, ipe=2)
    iterations = {s.sid: s for s in tracer.spans_named("iteration")}
    computes = tracer.spans_named("compute")
    assert computes
    for c in computes:
        parent = iterations[c.parent]
        assert parent.worker == c.worker
        assert parent.start <= c.start and c.end <= parent.end


def test_gauges_sampled():
    trainer = make_trainer(OSP(fixed_budget_fraction=0.5))
    sampler = trainer.enable_sampling()
    tracer = trainer.run().tracer
    for name in ("osp.sgu_budget", "osp.quorum_size", "osp.inflight_ics_bytes",
                 "obs.ps.version"):  # fmt: skip
        assert tracer.counters.get(name), name
    # in-flight ICS bytes drain back to zero at run end
    assert tracer.gauge_value("osp.inflight_ics_bytes") == 0.0
    # the fabric's payload and flow count are read at each sampler tick,
    # not bumped per flow
    for name in ("obs.net.inflight_bytes", "timeseries.net.active_flows"):
        assert name not in tracer.counters, name
        series = sampler.series[name]
        assert max(series.values) > 0.0, name
        assert series.last()[1] == 0.0, name
    assert trainer.network.inflight_payload == 0.0


def test_fault_events_become_instants():
    faults = FaultSchedule(
        events=[
            BandwidthDip(start=1.0, duration=2.0, factor=0.5),
            StragglerSlowdown(worker=0, start=0.5, duration=2.0, factor=2.0),
        ]
    )
    _trainer, _res, tracer = traced_run(BSP(), faults=faults)
    instant_names = {i.name for i in tracer.instants}
    assert "faults.bandwidth_dip" in instant_names
    assert "faults.straggler" in instant_names
    window_names = {s.name for s in tracer.spans if s.track == "faults"}
    assert {"faults.bandwidth_dip", "faults.straggler"} <= window_names


# -- zero perturbation ---------------------------------------------------------
def _fingerprint(res):
    return (
        res.wall_time,
        res.iteration_end_time,
        res.recorder.counters,
        [
            (r.worker, r.iteration, r.start_time, r.compute_time, r.sync_time)
            for r in res.recorder.iterations
        ],
    )


@pytest.mark.parametrize("sync_factory", [BSP, lambda: OSP(fixed_budget_fraction=0.5)])
def test_tracing_does_not_perturb_virtual_time(sync_factory):
    plain = make_trainer(sync_factory()).run()
    traced_trainer = make_trainer(sync_factory())
    traced_trainer.enable_tracing()
    traced = traced_trainer.run()
    assert _fingerprint(traced) == _fingerprint(plain)


def test_untraced_run_attaches_no_tracer():
    res = make_trainer(BSP(), workers=2, epochs=1, ipe=2).run()
    assert res.tracer is None


# -- unified trace file --------------------------------------------------------
def test_unified_trace_schema(tmp_path):
    _trainer, res, _tracer = traced_run(OSP(fixed_budget_fraction=0.5))
    path = tmp_path / "trace.json"
    n = write_unified_trace(path, res)
    payload = read_trace(path)
    events = payload["traceEvents"]
    assert len(events) == n
    for ev in events:
        assert ev["ph"] in {"X", "C", "i"}
        assert isinstance(ev["ts"], float) and ev["ts"] >= 0.0
        assert "pid" in ev and "tid" in ev and "name" in ev
        if ev["ph"] == "X":
            assert ev["dur"] >= 1.0  # min 1us so Perfetto renders it
    # every stream is present
    phases = {ev["ph"] for ev in events}
    assert phases == {"X", "C", "i"}
    pids = {ev["pid"] for ev in events}
    assert {"workers", "ics", "ps", "network", "counters"} <= pids
    # events are time-sorted
    ts = [ev["ts"] for ev in events]
    assert ts == sorted(ts)
    # machine-readable extras for `repro report`
    other = payload["otherData"]
    assert other["sync"] == res.sync_name
    assert "rs" in other["traffic"] and "ics" in other["traffic"]
