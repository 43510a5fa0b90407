"""What a traced, sampled and checked run observes is pinned to the byte.

One small OSP job runs with the tracer, the sampler and the strict monitors
attached, and SHA-256 digests of everything they produced are compared with
digests recorded before the sampler stored ticks as rows and the tracer
counted traffic per GIB use. A change to how ``obs`` or ``check`` does its
bookkeeping must leave every one of them where it is; a change that means
to move one says so and records the new digest here.

The trace moved once, by one key: ``otherData.wallTime`` (the run's wall
clock, which ``repro report --compare`` reads). Without that key the
document still hashes to its earlier pin, ``TRACE_WITHOUT_WALL_TIME``."""

import hashlib
import json

from repro.check import run_checked
from repro.core.osp import OSP
from repro.harness.workloads import WorkloadConfig, timing_trainer
from repro.obs.chrome import trace_document

PINNED = {
    "sampler": "c2d015acc97584587205d5c58b3b488344f6b58e3886fde10b893d7fc7175600",
    "series_order": "8522510776b8034b997d62669ba7c06f30e8b0bcaaced70b63496ffa7f4d41b1",
    "traffic": "d0b114aebedfa5282ffa29913323d6e08898c62dc41339a06fc5f965c5b8dd1e",
    "traffic_order": "daf850d3071785ee5e7894eea575d74233b16c5d9cdbf4ffdb2de28743db2fda",
    "trace": "b9634e4385b4927e83ff44d694e044d9a2ba629eea9b49b6bfd0e9c897f6ae00",
    "report": "7422c6c3cd5187154cc3a216de502e8c8b8a5de39d196c731c0453c92dfbeb7c",
    "counters": "962106ab23eee4e7d46f48bd190c389e90cb074eb40e66c4bdddeecbf97fce36",
}
TRACE_WITHOUT_WALL_TIME = (
    "ed575682c8d6cc2b11717ccfa12380fb82b3ad880719db79e15ca825fe7ccb53"
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
