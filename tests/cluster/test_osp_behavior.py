"""Behavioural tests for OSP: 2-stage structure, Eq. 5 budget, degradation
(§4.3), co-location (§4.4)."""

import numpy as np
import pytest

from repro.cluster import (
    ClusterSpec,
    DistributedTrainer,
    TimingEngine,
    TrainingPlan,
)
from repro.core import OSP, ColocatedOSP
from repro.hardware import NoJitter
from repro.nn.models import get_card
from repro.sync import BSP


def build(sync_model, workers=4, epochs=4, ipe=4, card="resnet50-cifar10", **spec_kw):
    spec = ClusterSpec(n_workers=workers, jitter=NoJitter(), **spec_kw)
    plan = TrainingPlan(n_epochs=epochs, iterations_per_epoch=ipe)
    engine = TimingEngine(get_card(card), spec, total_iterations=epochs * ipe)
    return DistributedTrainer(spec, plan, engine, sync_model)


def test_osp_umax_matches_eq5():
    osp = OSP()
    trainer = build(osp)
    trainer.run()
    spec = trainer.spec
    engine = trainer.engine
    t_c = engine.base_compute_time(spec)
    route_loss = 1 - (1 - spec.link.loss_rate) ** 2
    expected = min(
        spec.link.bandwidth * t_c / (spec.n_workers * (1 + route_loss)),
        0.8 * engine.model_bytes,
    )
    assert osp.u_max == pytest.approx(expected)


def test_osp_budget_zero_in_first_epoch():
    osp = OSP()
    trainer = build(osp, epochs=1)
    trainer.run()
    # After the only epoch, Algorithm 1 set L and returned 0.
    assert osp._tuner.initial_loss is not None


def test_osp_budget_ramps_up():
    osp = OSP()
    budgets = []
    trainer = build(osp, epochs=6)
    trainer.ctx.epoch_end_hooks.append(
        lambda e, loss, m: budgets.append(osp.current_budget)
    )
    trainer.run()
    assert budgets[0] == 0.0
    assert budgets[-1] > 0.0
    assert budgets == sorted(budgets)  # monotone with falling loss


def test_osp_first_epoch_behaves_like_bsp():
    """Epoch 1 has S(G^u)=0: all gradients in RS ⇒ BST matches BSP."""
    res_osp = build(OSP(), epochs=1).run()
    res_bsp = build(BSP(), epochs=1).run()
    assert res_osp.mean_bst == pytest.approx(res_bsp.mean_bst, rel=0.02)


def test_osp_bst_drops_after_ramp():
    res = build(OSP(), epochs=8).run()
    first_epoch = [r.sync_time for r in res.recorder.iterations if r.iteration < 4]
    last_epoch = [r.sync_time for r in res.recorder.iterations if r.iteration >= 28]
    assert np.mean(last_epoch) < 0.6 * np.mean(first_epoch)


def test_osp_forced_bsp_equals_bsp_bst():
    res_forced = build(OSP(force="bsp"), epochs=3).run()
    res_bsp = build(BSP(), epochs=3).run()
    assert res_forced.mean_bst == pytest.approx(res_bsp.mean_bst, rel=0.02)
    assert res_forced.sync_name == "osp-forced-bsp"


def test_osp_forced_asp_has_near_zero_bst():
    """§4.3: everything in ICS ⇒ only the empty-RS barrier remains in the
    critical path (zero at NoJitter), comm fully overlapped."""
    res = build(OSP(force="asp"), epochs=3).run()
    res_bsp = build(BSP(), epochs=3).run()
    assert res.mean_bst < 0.25 * res_bsp.mean_bst
    assert res.throughput > 1.5 * res_bsp.throughput


def test_osp_ics_traffic_exists_and_is_tagged():
    trainer = build(OSP(), epochs=6)
    trainer.run()
    tags = {r.tag[0] for r in trainer.network.records if isinstance(r.tag, tuple)}
    assert {"rs-push", "rs-pull", "ics-push", "ics-pull", "gib"} <= tags


def test_osp_rs_plus_ics_bytes_equal_full_model():
    """OSP defers, never drops: per iteration the pushed bytes equal the
    full gradient size (conservation)."""
    trainer = build(OSP(), epochs=6, workers=2)
    trainer.run()
    model_bytes = trainer.engine.model_bytes
    per_iter = {}
    for r in trainer.network.records:
        if isinstance(r.tag, tuple) and r.tag[0] in ("rs-push", "ics-push"):
            key = (r.tag[1], r.tag[2])
            per_iter[key] = per_iter.get(key, 0.0) + r.size
    # every (worker, iteration) pushed exactly the full model
    for key, total in per_iter.items():
        assert total == pytest.approx(model_bytes, rel=1e-6), key


def test_osp_gib_stays_consistent_across_workers_per_iteration():
    """All workers must split one iteration with the same bitmap: their
    rs-push sizes are identical within an iteration."""
    trainer = build(OSP(), epochs=6, workers=4)
    trainer.run()
    sizes_by_iter = {}
    for r in trainer.network.records:
        if isinstance(r.tag, tuple) and r.tag[0] == "rs-push":
            sizes_by_iter.setdefault(r.tag[2], set()).add(round(r.size, 3))
    for it, sizes in sizes_by_iter.items():
        assert len(sizes) == 1, f"iteration {it} saw inconsistent GIBs"


def test_osp_gib_wire_bytes_small():
    trainer = build(OSP(), epochs=6)
    trainer.run()
    gib_sizes = [
        r.size
        for r in trainer.network.records
        if isinstance(r.tag, tuple) and r.tag[0] == "gib"
    ]
    assert gib_sizes and max(gib_sizes) < 1024  # §4.1.2: < 1KB


def test_osp_invalid_modes():
    with pytest.raises(ValueError):
        OSP(lgp="bogus")
    with pytest.raises(ValueError):
        OSP(force="ssp")


# ------------------------------------------------------------- co-location
def test_colocated_requires_colocated_spec():
    trainer = build(ColocatedOSP(), colocated_ps=False)
    with pytest.raises(ValueError):
        trainer.run()


def test_colocated_ps_worker_pays_pgp_overhead():
    trainer = build(ColocatedOSP(), colocated_ps=True, epochs=2)
    res = trainer.run()
    bct_ps = np.mean(
        [r.compute_time for r in res.recorder.iterations if r.worker == 0]
    )
    bct_other = np.mean(
        [r.compute_time for r in res.recorder.iterations if r.worker != 0]
    )
    assert bct_ps > bct_other
    overhead = bct_ps / bct_other - 1
    assert 0.01 < overhead < 0.15  # paper band 3-8% plus margin


def test_colocated_overhead_ordering_vgg_max_inception_min():
    """Fig. 9: VGG16 (param-heavy) has the highest OSP-C overhead,
    InceptionV3 (FLOP-heavy) the lowest."""
    def overhead(card):
        trainer = build(ColocatedOSP(), colocated_ps=True, epochs=2, card=card)
        res = trainer.run()
        ps = np.mean([r.compute_time for r in res.recorder.iterations if r.worker == 0])
        other = np.mean([r.compute_time for r in res.recorder.iterations if r.worker != 0])
        return ps / other - 1

    o_vgg = overhead("vgg16-cifar10")
    o_inc = overhead("inceptionv3-cifar100")
    o_r50 = overhead("resnet50-cifar10")
    assert o_vgg > o_inc
    assert o_inc < o_r50


def test_colocated_loopback_traffic_is_free():
    trainer = build(ColocatedOSP(), colocated_ps=True, epochs=2)
    trainer.run()
    for rec in trainer.network.records:
        if rec.src == rec.dst:
            assert rec.duration == 0.0
