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
sample, and the probes read in-flight bytes at the sample's time."""

import hashlib
import json

from repro.check import run_checked
from repro.core.osp import OSP
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
}
TRACE_WITHOUT_WALL_TIME = (
    "6f87a26a36739552eddbd96c8ade38f6b5f5c9f8663853b73826e15e29cc7960"
)
SPANS = 523
SAMPLES = 63


def _digest(obj) -> str:
    # Insertion order is part of what is pinned: no sort_keys.
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


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
    }
    del trace["otherData"]["wallTime"]
    digests["trace_without_wall_time"] = _digest(trace)
    return digests, len(tracer.spans), sampler.samples_taken


def test_observed_outputs_match_their_pinned_digests():
    digests, spans, samples = observed()
    assert (spans, samples) == (SPANS, SAMPLES)
    assert digests.pop("trace_without_wall_time") == TRACE_WITHOUT_WALL_TIME
    assert digests == PINNED


if __name__ == "__main__":
    print(observed())
