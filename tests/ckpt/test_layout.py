"""Checkpoint plane format: layer order, zero fill, and the version number.

Nothing here pins a hash: the planes are compared with what the live
name→array state says they must hold."""

import numpy as np

from repro.ckpt import FORMAT_VERSION, capture
from repro.ckpt.layout import PlaneLayout
from repro.harness.workloads import WorkloadConfig, make_numeric_dataset, numeric_trainer
from repro.sync import BSP


def test_layout_offsets_follow_layer_order():
    layout = PlaneLayout(
        {"a": ("a.w", "a.b"), "b": ("b.w", "b.b"), "c": ("c.w",)},
        {"a.w": (2, 3), "a.b": (3,), "b.w": (4, 3), "b.b": (3,), "c.w": (5,)},
    )
    assert tuple(layout.slices) == ("a.w", "a.b", "b.w", "b.b", "c.w")
    assert layout.size == 6 + 3 + 12 + 3 + 5
    assert layout.slices["a.w"] == slice(0, 6)
    assert layout.slices["b.w"] == slice(9, 21)
    assert layout.slices["c.w"] == slice(24, 29)
    assert layout.fingerprint() == {
        "names": ["a.w", "a.b", "b.w", "b.b", "c.w"],
        "sizes": [6, 3, 12, 3, 5],
    }

    b_w = np.arange(12.0).reshape(4, 3)
    plane = layout.pack({"b.w": b_w, "c.w": np.full(5, -1.0)})
    assert plane.dtype == np.float64 and plane.shape == (29,)
    assert np.array_equal(plane[9:21], b_w.ravel())  # C order
    assert not plane[:9].any() and not plane[21:24].any()  # absent names stay zero
    assert np.array_equal(layout.unpack(plane, ["b.w"])["b.w"], b_w)
    target = {"c.w": np.zeros(5), "a.b": np.ones(3)}
    layout.unpack_into(plane, target)
    assert np.array_equal(target["c.w"], np.full(5, -1.0))
    assert not target["a.b"].any()


def test_checkpoint_planes_hold_the_live_state_in_layer_order():
    cfg = WorkloadConfig("resnet50-cifar10", n_workers=2, n_epochs=1, seed=5)
    data = make_numeric_dataset(cfg.card, n_samples=120, seed=5)
    trainer = numeric_trainer(cfg, BSP(), data=data)
    engine, ps = trainer.engine, trainer.ps
    assert ps.optimizer.momentum > 0
    order = [n for names in engine.splitter.layer_params.values() for n in names]
    params = ps.snapshot(copy=False)
    assert sorted(order) == sorted(params) and len(order) > 4

    # One PS round over the first two layers only: every other parameter
    # has never been aggregated and never taken a momentum step.
    stepped = [n for layer in engine.splitter.layers[:2] for n in engine.splitter.layer_params[layer]]
    ps.accumulate("round", 0, {n: np.full(params[n].shape, 0.5) for n in stepped})
    ps.apply_average("round")
    engine.sync_replica(1, ps)  # replica 1 now differs from replica 0

    ckpt = capture(trainer, next_epoch=0)
    assert FORMAT_VERSION == 2 == ckpt.format_version

    def concat(arrays):
        return np.concatenate([arrays[n].ravel() for n in order])

    assert np.array_equal(ckpt.arrays["ps/params"], concat(params))
    for w in range(2):
        assert np.array_equal(ckpt.arrays[f"replica/{w}"], concat(engine.worker_params(w)))
    assert not np.array_equal(ckpt.arrays["replica/0"], ckpt.arrays["replica/1"])
    assert ckpt.meta["aggregate_seen"] == sorted(stepped)
    assert ckpt.meta["params"] == {"names": order, "sizes": [params[n].size for n in order]}

    offsets = np.cumsum([0] + ckpt.meta["params"]["sizes"])
    for key, live in (("ps/aggregate", ps.last_aggregated), ("ps/velocity", ps.optimizer.velocity)):
        plane = ckpt.arrays[key]
        assert plane.dtype == np.float64 and plane.shape == (offsets[-1],)
        for name, start, stop in zip(order, offsets[:-1], offsets[1:]):
            if name in stepped:
                assert np.array_equal(plane[start:stop], live[name].ravel()), (key, name)
                assert plane[start:stop].any(), (key, name)
            else:
                assert not plane[start:stop].any(), (key, name)
