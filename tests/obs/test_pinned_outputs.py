"""What a traced, sampled and checked run observes is pinned to the byte.

One small OSP job runs with the tracer, the sampler and the strict monitors
attached, and SHA-256 digests of everything they produced are compared with
digests recorded before the sampler stored ticks as rows and the tracer
counted traffic per GIB use. A change to how ``obs`` or ``check`` does its
bookkeeping must leave every one of them where it is; a change that means
to move one says so and records the new digest here.

The trace moved once, by one key: ``otherData.wallTime`` (the run's wall
clock, which ``repro report --compare`` reads). Without that key the
document hashes to ``TRACE_WITHOUT_WALL_TIME``.

The sampler and the trace moved again when the fabric started crediting a
flow's bytes when it finishes and cancelling superseded wake-ups: the
trace's ``netsim.prio_bytes.*`` recorder counters became the exact sums of
finished flows' bytes (``72456781504.0`` high, where the drained running
sum read ``72456781503.99994``), a cancelled wake-up no longer takes a
sample, and the probes read in-flight bytes at the sample's time.

Three more runs were pinned before the sampler read the fabric once per
tick, the ICS monitor kept a running tally and spans were built
positionally: every field of every span of the run above (``spans``); a
sampled co-tenant pair, whose network and per-tenant probes share the fabric
and whose spans carry their job (``COTENANT``); and an elastic OSP job with
a crash and restart, a leave, a join and a bandwidth dip, sampled into
13-slot rings so every ring wraps (``ELASTIC``).

The sampler, trace and tracer-counter digests of all three moved when the
fabric's ``obs.net.*`` gauges became sampled values: the network probe
reports them at every tick, the first tick included (both 0.0), and the
tracer no longer holds them as counter tracks, so the trace has no
``obs.net.*`` counter events. At every tick that sampled them before, their
values are unchanged. Spans, traffic and the monitors' reports did not
move.

The sampler, series-order and dropped-sample digests of all three moved
once more when ``obs.net.active_flows`` was dropped: it held the same value
as ``timeseries.net.active_flows`` at every tick. Each new digest is the old
run's with that one series taken out."""

import hashlib
import json

from repro.check import run_checked
from repro.core.osp import OSP
from repro.faults import BandwidthDip, FaultSchedule, WorkerCrash, WorkerJoin, WorkerLeave
from repro.harness.cotenancy import osp_with_background, shared_fabric_runner
from repro.harness.workloads import WorkloadConfig, timing_trainer
from repro.obs.chrome import trace_document

PINNED = {
    "sampler": "f070cb814a5ff3102c1a8569a45b94f862b6173e02a5b7a0c58275de50b72313",
    "series_order": "d04d15b17afceaaacd5e602b68b5e05f7eaa8886f3c5a4d25d080cef05921fd6",
    "traffic": "d0b114aebedfa5282ffa29913323d6e08898c62dc41339a06fc5f965c5b8dd1e",
    "traffic_order": "daf850d3071785ee5e7894eea575d74233b16c5d9cdbf4ffdb2de28743db2fda",
    "trace": "08bea6fbc67d679dd1924a66b9872fa5c3eaad71db6927e4f339d7e7335ca5d5",
    "report": "7422c6c3cd5187154cc3a216de502e8c8b8a5de39d196c731c0453c92dfbeb7c",
    "counters": "aff6be5947d8f53cc4b998f55b5a8dd3f1f145ef57fd57600c54916dcc9ccfcb",
    "spans": "145d6b6da2f4b3ffe05f93eea4af86750e74b4540433dccad9ae40f87b19623a",
}
TRACE_WITHOUT_WALL_TIME = (
    "fb2c5c0ca28b1cbb72222878a405b26248b220c2449ff0f4bc3b50eead72e5a6"
)
SPANS = 523
SAMPLES = 63
COTENANT = {
    "sampler": "13dfb4a2464cd740d280da5065527abd27f1e4e016a1f6b8c1dfdd3a2b447fd5",
    "series_order": "4cf4d3af828dd2910123d084332f9cb583c0aecc7f863fbb2f61829915280387",
    "dropped": "a7ae9c70cf36a9a705d5644ca90681ae9c278412d3ffdc43ee8d14afb25d4023",
    "spans": "45be5c6a60b1af8208c1e7393d0df10394b8edc89a647733d5bcaab7eab73eb4",
    "counters": "364be6396c4215d9715b61809ad3fac2d3e769f29642c76b10a979217beb1ff9",
    "samples": 104,
    "n_spans": 973,
}
ELASTIC = {
    "sampler": "c34fd338b509a741eb72c7bc23ce43612123cb5c754eb11838d0eeaeec8873f3",
    "series_order": "7d724b409497bc929b00bfb165eb3768c79a4ef06400867300d698f0494456be",
    "dropped": "b719d3c33a792e452950e73ca72d60748e5f6dfaf311b8a6a10dcdded6f96ccd",
    "spans": "121ac860d1d2f655caf836644c336b895989cd93d013b02d9dee5f28b13951e3",
    "counters": "1f53a5a46c38f5c930bb753541d3994bc6ca61d8d1e549280c44034bc447bddb",
    "samples": 58,
    "n_spans": 495,
    "trace": "99c7108d530de5ca892a00a929cf7c19cffd013e0e3494359721912f25797217",
    "report": "8db383e98b2f0abbbfd8030969dbddced6efc45b676405996c4f33cd93ad8fa5",
}


def _digest(obj) -> str:
    # Insertion order is part of what is pinned: no sort_keys.
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


def _span_rows(spans) -> list:
    return [
        [s.sid, s.name, s.actor, s.track, s.cat, s.start, s.end, s.parent,
         s.worker, s.iteration, s.job, s.attrs]
        for s in spans
    ]  # fmt: skip


def _sampled_digests(sampler, tracer) -> dict:
    return {
        "sampler": _digest(sampler.as_dict()),
        "series_order": _digest(list(sampler.series)),
        "dropped": _digest({name: s.dropped for name, s in sampler.series.items()}),
        "spans": _digest(_span_rows(tracer.spans)),
        "counters": _digest(tracer.counters),
        "samples": sampler.samples_taken,
        "n_spans": len(tracer.spans),
    }


def observed():
    cfg = WorkloadConfig(
        card_name="vgg16-cifar10",
        n_workers=4,
        n_epochs=3,
        iterations_per_epoch=6,
        sigma=0.1,
        seed=7,
    )
    trainer = timing_trainer(cfg, OSP())
    sampler = trainer.enable_sampling()
    result, report = run_checked(trainer)
    tracer = result.tracer
    trace = trace_document(result)
    digests = {
        "sampler": _digest(sampler.as_dict()),
        "series_order": _digest(list(sampler.series)),
        "traffic": _digest(sorted(tracer.traffic.items())),
        "traffic_order": _digest(list(tracer.traffic)),
        "trace": _digest(trace),
        "report": _digest(report.to_dict()),
        "counters": _digest(tracer.counters),
        "spans": _digest(_span_rows(tracer.spans)),
    }
    del trace["otherData"]["wallTime"]
    digests["trace_without_wall_time"] = _digest(trace)
    return digests, len(tracer.spans), sampler.samples_taken


def observed_cotenant():
    runner = shared_fabric_runner(osp_with_background())
    sampler = runner.enable_sampling()
    result = runner.run()
    return _sampled_digests(sampler, result.tracer)


def observed_elastic():
    cfg = WorkloadConfig(
        card_name="resnet50-cifar10",
        n_workers=4,
        n_epochs=5,
        iterations_per_epoch=4,
        sigma=0.1,
        seed=11,
        faults=FaultSchedule(
            (
                WorkerCrash(worker=2, before_epoch=2, restart_epoch=4),
                WorkerLeave(worker=1, epoch=3),
                WorkerJoin(worker=3, epoch=1),
                BandwidthDip(start=1.0, duration=2.0, factor=0.5),
            )
        ),
    )
    trainer = timing_trainer(cfg, OSP())
    sampler = trainer.enable_sampling(capacity=13)
    result, report = run_checked(trainer)
    return {
        **_sampled_digests(sampler, result.tracer),
        "trace": _digest(_without_wall_time(trace_document(result))),
        "report": _digest(report.to_dict()),
    }


def _without_wall_time(trace: dict) -> dict:
    del trace["otherData"]["wallTime"]
    return trace


def test_observed_outputs_match_their_pinned_digests():
    digests, spans, samples = observed()
    assert (spans, samples) == (SPANS, SAMPLES)
    assert digests.pop("trace_without_wall_time") == TRACE_WITHOUT_WALL_TIME
    assert digests == PINNED


def test_a_sampled_cotenant_pair_matches_its_pinned_digests():
    assert observed_cotenant() == COTENANT


def test_a_sampled_elastic_job_with_wrapping_rings_matches_its_pinned_digests():
    assert observed_elastic() == ELASTIC


if __name__ == "__main__":
    print(observed())
    print(observed_cotenant())
    print(observed_elastic())
