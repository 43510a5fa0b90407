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
13-slot rings so every ring wraps (``ELASTIC``)."""

import hashlib
import json

from repro.check import run_checked
from repro.core.osp import OSP
from repro.faults import BandwidthDip, FaultSchedule, WorkerCrash, WorkerJoin, WorkerLeave
from repro.harness.cotenancy import osp_with_background, shared_fabric_runner
from repro.harness.workloads import WorkloadConfig, timing_trainer
from repro.obs.chrome import trace_document

PINNED = {
    "sampler": "3d55c75cd8a3749312d227497105e003123bca96a7fdafc1527da88cf9d42647",
    "series_order": "8522510776b8034b997d62669ba7c06f30e8b0bcaaced70b63496ffa7f4d41b1",
    "traffic": "d0b114aebedfa5282ffa29913323d6e08898c62dc41339a06fc5f965c5b8dd1e",
    "traffic_order": "daf850d3071785ee5e7894eea575d74233b16c5d9cdbf4ffdb2de28743db2fda",
    "trace": "84cb32475c45bed5359f783779a3e6166474b2e1bf04c18efd9c14eef1bfaacb",
    "report": "7422c6c3cd5187154cc3a216de502e8c8b8a5de39d196c731c0453c92dfbeb7c",
    "counters": "962106ab23eee4e7d46f48bd190c389e90cb074eb40e66c4bdddeecbf97fce36",
    "spans": "145d6b6da2f4b3ffe05f93eea4af86750e74b4540433dccad9ae40f87b19623a",
}
TRACE_WITHOUT_WALL_TIME = (
    "6f87a26a36739552eddbd96c8ade38f6b5f5c9f8663853b73826e15e29cc7960"
)
SPANS = 523
SAMPLES = 63
COTENANT = {
    "sampler": "cdf0ddf81d600d48264240f1eccfc6bd71fde288461cb93b6f03478c47b5e397",
    "series_order": "751170d4732758275896a386b16364609e39c9886bf9cb1bd95d5a2dd58573e8",
    "dropped": "9d9d4c52dcfd5983aa8cb26802d99e8b41b5ea204f3040ba4e72ca2f672b6f38",
    "spans": "45be5c6a60b1af8208c1e7393d0df10394b8edc89a647733d5bcaab7eab73eb4",
    "counters": "39520b663e005bb4e3ea08cd3d99246f8b13b4b190a72d44716521edd16d3d24",
    "samples": 104,
    "n_spans": 973,
}
ELASTIC = {
    "sampler": "8181c39719dd09a4f6b5b2f3d4bee13baab352f22089e427aec0252ba6e821e4",
    "series_order": "c544edac5575984c456e9ee5b229d6442b433f1473d3b284fe84c56249013005",
    "dropped": "0ffd8e657fd6b0154856efcd0fda07bee0920f7720775f879b03fcdba4482cb5",
    "spans": "121ac860d1d2f655caf836644c336b895989cd93d013b02d9dee5f28b13951e3",
    "counters": "753dba0ed4e3f20a2aa7b0189b0969fc6234e81b92722359cac49af7348637f5",
    "samples": 58,
    "n_spans": 495,
    "trace": "7f098fdb571a8ec388b8ce05adccc37454093eab722e03e84cda8b0518a3579e",
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
