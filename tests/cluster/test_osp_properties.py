"""Property-based end-to-end invariants of OSP (timing mode: fast)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterSpec, DistributedTrainer, TimingEngine, TrainingPlan
from repro.core import OSP
from repro.hardware import LognormalJitter, NoJitter
from repro.nn.models import get_card


def run_osp(workers, epochs, ipe, sigma, seed, fixed_budget=None):
    jitter = LognormalJitter(sigma=sigma, seed=seed) if sigma else NoJitter()
    spec = ClusterSpec(n_workers=workers, jitter=jitter)
    plan = TrainingPlan(n_epochs=epochs, iterations_per_epoch=ipe, seed=seed)
    engine = TimingEngine(
        get_card("resnet50-cifar10"),
        spec,
        total_iterations=epochs * ipe,
        seed=seed,
        tau=max(1.0, epochs * ipe / 5),
    )
    osp = OSP(fixed_budget_fraction=fixed_budget)
    trainer = DistributedTrainer(spec, plan, engine, osp)
    res = trainer.run()
    return trainer, osp, res


@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=2, max_value=4),
    st.sampled_from([0.0, 0.15, 0.4]),
    st.integers(min_value=0, max_value=10),
)
@settings(max_examples=25, deadline=None)
def test_property_all_iterations_complete(workers, epochs, ipe, sigma, seed):
    _t, _o, res = run_osp(workers, epochs, ipe, sigma, seed)
    assert res.recorder.total_iterations == workers * epochs * ipe


@given(
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=3, max_value=6),
    st.integers(min_value=0, max_value=10),
)
@settings(max_examples=20, deadline=None)
def test_property_push_bytes_conserved(workers, epochs, seed):
    """Every (worker, iteration) pushes exactly the full gradient across
    RS + ICS, whatever the budget trajectory did."""
    trainer, _osp, _res = run_osp(workers, epochs, 3, 0.2, seed)
    model_bytes = trainer.engine.model_bytes
    per_iter = {}
    for r in trainer.network.records:
        if isinstance(r.tag, tuple) and r.tag[0] in ("rs-push", "ics-push"):
            key = (r.tag[1], r.tag[2])
            per_iter[key] = per_iter.get(key, 0.0) + r.size
    assert per_iter
    for key, total in per_iter.items():
        assert total == pytest.approx(model_bytes, rel=1e-6), key


@given(
    st.floats(min_value=0.0, max_value=0.8),
    st.integers(min_value=0, max_value=5),
)
@settings(max_examples=15, deadline=None)
def test_property_budget_respects_eq5(fixed_budget, seed):
    _t, osp, _res = run_osp(4, 3, 3, 0.0, seed, fixed_budget=fixed_budget)
    assert osp.current_budget <= osp.u_max + 1e-6


@given(st.integers(min_value=0, max_value=5))
@settings(max_examples=10, deadline=None)
def test_property_gib_partition_is_exact(seed):
    trainer, osp, _res = run_osp(3, 4, 3, 0.1, seed)
    gib = osp.current_gib
    layers = set(trainer.engine.splitter.layers)
    assert set(gib.important_layers) | set(gib.unimportant_layers) == layers
    assert not (set(gib.important_layers) & set(gib.unimportant_layers))


@given(st.integers(min_value=0, max_value=3))
@settings(max_examples=8, deadline=None)
def test_property_deterministic_given_seed(seed):
    def fingerprint():
        _t, _o, res = run_osp(4, 3, 3, 0.3, seed)
        return [
            (r.worker, r.iteration, round(r.start_time, 9), round(r.sync_time, 9))
            for r in res.recorder.iterations
        ]

    assert fingerprint() == fingerprint()
