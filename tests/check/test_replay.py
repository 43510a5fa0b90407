"""Differential replay: equivalence pairs are identical; bugs are localized."""

import pytest

from repro.check import (
    ReplayEvent,
    differential_replay,
    first_divergence,
    replay_resume,
)
from repro.core.gib import GIB
from repro.core.osp import OSP
from repro.harness.workloads import (
    WorkloadConfig,
    make_numeric_dataset,
    numeric_trainer,
)

CFG = WorkloadConfig(
    card_name="resnet50-cifar10",
    n_workers=3,
    n_epochs=3,
    iterations_per_epoch=4,
    sigma=0.1,
    seed=11,
)
DATA = make_numeric_dataset(CFG.card, n_samples=240, seed=11)


def _build(**trainer_kwargs):
    return numeric_trainer(CFG, OSP(), data=DATA, **trainer_kwargs)


def test_resume_replay_is_identical(tmp_path):
    report = replay_resume(_build, tmp_path)
    assert report.identical, report.render()
    assert "resumed@" in report.label_b


def test_capture_stream_excludes_ckpt_and_check_counters(tmp_path):
    # ckpt.restore differs between the two runs of replay_resume by design;
    # the stream must not see any ckpt.*/check.* counter at all.
    from repro.check import capture_stream, run_checked

    trainer = _build(checkpoint_every=2, checkpoint_dir=tmp_path)
    result, _report = run_checked(trainer)
    raw = result.recorder.counters
    assert any(n.startswith(("ckpt.", "check.")) for n in raw)
    names = [
        ev.key[0] for ev in capture_stream(trainer, result) if ev.kind == "counter"
    ]
    assert not [n for n in names if n.startswith(("ckpt.", "check."))]


def test_injected_gib_corruption_is_localized_with_span_context():
    """An all-ICS GIB in run B changes RS scheduling; the first divergent
    event must be found and carry span context from the tracer."""

    def build_corrupted():
        trainer = _build()
        sync = trainer.sync_model

        def corrupt():
            sync._pending_gib = GIB.all_unimportant(sync.staged_gib.layers)

        sync.gib_staged_hooks.append(corrupt)
        return trainer

    report = differential_replay(_build, build_corrupted, "clean", "corrupted")
    assert not report.identical
    div = report.divergence
    assert div.event_a is not None and div.event_b is not None
    assert div.event_a != div.event_b
    # the harness attributes the divergence to a traced phase on both sides
    assert div.event_a.kind == "iteration"
    assert div.context_a and div.context_b


def _ev(i):
    return ReplayEvent("iteration", (0, i), (float(i),))


def test_first_divergence_identical_and_prefix():
    a = [_ev(i) for i in range(20)]
    assert first_divergence(a, list(a)) is None
    assert first_divergence(a, a[:13]) == 13  # strict prefix: index past end


@pytest.mark.parametrize("where", [0, 1, 9, 18, 19])
def test_first_divergence_bisects_to_exact_index(where):
    a = [_ev(i) for i in range(20)]
    b = list(a)
    b[where] = ReplayEvent("iteration", (0, where), (-1.0,))
    assert first_divergence(a, b) == where
