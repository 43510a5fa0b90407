"""Committed replay-stream goldens and traffic fingerprints, one per sync model.

`test_stream_io.py` pins the OSP schedule; these pin every baseline — BSP,
ASP, SSP, DSSP, R²SP and R²SP-duplex, WFBP, CompressedBSP, ShardedBSP and
SyncSwitch — on the same timing-mode workload card, so any netsim,
scheduler or sync-model change that shifts one float64 bit fails here with
a localized divergence. The first five goldens were generated *before* the
priority-aware scheduler landed, so they also serve as the "identical to
main" witness for PR 8.

A stream covers iteration records, epochs, counters and ``wall_time``; it
cannot see a flow's tag or class or a span's name, lane or attributes. The
traffic fingerprint can: one traced run per model on the same workload,
sha256 over every flow record (with the class each flow was started in) and
every span, compared with ``golden/traffic_fingerprints.json``.

If a divergence is an intended semantic change, regenerate:

    PYTHONPATH=src python tests/check/test_stream_goldens.py regen [sync]
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.check import capture_stream, dump_stream, first_divergence, load_stream
from repro.compression import TopK
from repro.core.osp import OSP
from repro.harness.workloads import WorkloadConfig, timing_trainer
from repro.sync import (
    ASP,
    BSP,
    DSSP,
    R2SP,
    SSP,
    WFBP,
    CompressedBSP,
    ShardedBSP,
    SyncSwitch,
)

GOLDEN_DIR = Path(__file__).parent / "golden"
FINGERPRINTS = GOLDEN_DIR / "traffic_fingerprints.json"

SYNC_FACTORIES = {
    "bsp": BSP,
    "asp": ASP,
    "ssp": SSP,
    "dssp": DSSP,
    "r2sp": R2SP,
    "r2sp-duplex": lambda: R2SP(duplex=True),
    "wfbp": WFBP,
    "compressed-bsp": lambda: CompressedBSP(TopK(0.1)),
    "sharded-bsp": ShardedBSP,
    "sync-switch": lambda: SyncSwitch(switch_epoch=2),  # both phases in 3 epochs
}
#: Spec overrides: ShardedBSP is only sharded with more than one PS, and at
#: four workers WFBP hides every push inside the backward pass — at eight
#: its exposed per-layer pushes run in both of its classes.
SPEC = {"sharded-bsp": {"n_ps": 2}, "wfbp": {"n_workers": 8}}
#: The fingerprinted models: every baseline plus OSP.
TRAFFIC_FACTORIES = {**SYNC_FACTORIES, "osp": OSP}

#: OSP goldens across workload cards beyond the vgg16 one pinned by
#: test_stream_io.py — a conv net with aux towers, the deepest resnet,
#: and the transformer card. Between them they exercise every
#: layer-shape regime the timing engine models, so a schedule change
#: that only bites large-tensor or many-layer cards still trips here.
OSP_CARD_GOLDENS = (
    "inceptionv3-cifar100",
    "resnet101-imagenet",
    "bertbase-squad",
)


def _golden_path(name: str) -> Path:
    return GOLDEN_DIR / f"{name.replace('-', '_')}_vgg16_stream.jsonl"


def _card_golden_path(card_name: str) -> Path:
    return GOLDEN_DIR / f"osp_{card_name.replace('-', '_')}_stream.jsonl"


def _trainer(name: str):
    # Same card/shape as the OSP golden (test_stream_io._golden_trainer)
    # so every baseline and OSP pin the same workload.
    shape = dict(n_workers=4, n_epochs=3, iterations_per_epoch=6, sigma=0.1, seed=7)
    cfg = WorkloadConfig("vgg16-cifar10", **{**shape, **SPEC.get(name, {})})
    return timing_trainer(cfg, TRAFFIC_FACTORIES[name]())


def _fresh_stream(name: str):
    trainer = _trainer(name)
    result = trainer.run()
    return capture_stream(trainer, result)


def _fresh_osp_card_stream(card_name: str):
    cfg = WorkloadConfig(
        card_name=card_name,
        n_workers=4,
        n_epochs=2,
        iterations_per_epoch=4,
        sigma=0.1,
        seed=7,
    )
    trainer = timing_trainer(cfg, OSP())
    result = trainer.run()
    return capture_stream(trainer, result)


def _sha256(rows) -> str:
    digest = hashlib.sha256()
    for row in rows:
        digest.update(repr(row).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def _traffic_fingerprint(name: str) -> dict:
    """Every flow and span of one traced run, hashed (floats by ``repr``)."""
    trainer = _trainer(name)
    tracer = trainer.enable_tracing()
    prio = {}
    trainer.network.flow_hooks.append(lambda flow: prio.__setitem__(flow.fid, flow.prio))
    trainer.run()
    flows = [
        (r.tag, r.src, r.dst, r.size, prio.get(r.fid), r.start_time, r.end_time)
        for r in trainer.network.records
    ]
    spans = [
        (s.name, s.track, s.actor, s.cat, s.parent, s.worker, s.iteration,
         s.start, s.end, sorted(s.attrs.items()))
        for s in tracer.spans
    ]  # fmt: skip
    return {
        "flows": len(flows),
        "flows_sha256": _sha256(flows),
        "spans": len(spans),
        "spans_sha256": _sha256(spans),
        "events": trainer.env._eid,
    }


def _assert_matches_golden(label, golden, fresh):
    index = first_divergence(golden, fresh)
    if index is not None:
        g = golden[index] if index < len(golden) else None
        f = fresh[index] if index < len(fresh) else None
        pytest.fail(
            f"{label} event stream diverged from golden at index {index}:\n"
            f"  golden: {g.render() if g else '<stream ended>'}\n"
            f"  fresh:  {f.render() if f else '<stream ended>'}\n"
            "If this change is intended, regenerate with: "
            "PYTHONPATH=src python tests/check/test_stream_goldens.py regen"
        )


@pytest.mark.parametrize("name", sorted(SYNC_FACTORIES))
def test_fresh_run_matches_committed_golden(name):
    golden = load_stream(_golden_path(name))
    fresh = _fresh_stream(name)
    _assert_matches_golden(name, golden, fresh)


@pytest.mark.parametrize("card_name", OSP_CARD_GOLDENS)
def test_osp_card_matches_committed_golden(card_name):
    golden = load_stream(_card_golden_path(card_name))
    fresh = _fresh_osp_card_stream(card_name)
    _assert_matches_golden(f"osp/{card_name}", golden, fresh)


@pytest.mark.parametrize("name", sorted(TRAFFIC_FACTORIES))
def test_traffic_matches_committed_fingerprint(name):
    committed = json.loads(FINGERPRINTS.read_text())[name]
    fresh = _traffic_fingerprint(name)
    events = fresh.pop("events")
    assert fresh == {k: v for k, v in committed.items() if k != "events"}, (
        f"{name}: a flow's tag, class, size or timing, or a span, moved. If this "
        "is intended, regenerate with: "
        "PYTHONPATH=src python tests/check/test_stream_goldens.py regen"
    )
    assert events == committed["events"], (
        f"{name}: the kernel scheduled {events} events, not {committed['events']}; "
        "every flow and span is unchanged. If the kernel change is intended, "
        "regenerate with: PYTHONPATH=src python tests/check/test_stream_goldens.py regen"
    )


def test_every_conformance_model_is_pinned():
    from tests.sync.test_conformance import MODELS

    pinned = {type(make()) for make in TRAFFIC_FACTORIES.values()}
    assert {type(make()) for make in MODELS.values()} <= pinned


if __name__ == "__main__":
    if len(sys.argv) > 1 and sys.argv[1] == "regen":
        targets = sys.argv[2:] or sorted(TRAFFIC_FACTORIES) + list(OSP_CARD_GOLDENS)
        prints = json.loads(FINGERPRINTS.read_text()) if FINGERPRINTS.exists() else {}
        for name in targets:
            if name in OSP_CARD_GOLDENS:
                path = dump_stream(_fresh_osp_card_stream(name), _card_golden_path(name))
                print(f"wrote {path} ({len(load_stream(path))} events)")
                continue
            if name in SYNC_FACTORIES:
                path = dump_stream(_fresh_stream(name), _golden_path(name))
                print(f"wrote {path} ({len(load_stream(path))} events)")
            prints[name] = _traffic_fingerprint(name)
        FINGERPRINTS.write_text(json.dumps(dict(sorted(prints.items())), indent=1) + "\n")
        print(f"wrote {FINGERPRINTS} ({len(prints)} models)")
    else:
        print(__doc__)
