"""Unit tests for datasets, sharding, and batch loading."""

import numpy as np
import pytest

from repro.data import (
    ANSWER_VOCAB_RANGE,
    BatchLoader,
    Dataset,
    make_extractive_qa,
    make_image_classification,
    shard_dirichlet,
    shard_iid,
    train_test_split,
)
from repro.data.synthetic_images import _blur


# ---------------------------------------------------------------- Dataset
def test_dataset_basic_invariants():
    ds = Dataset(np.zeros((10, 3)), np.zeros(10, dtype=int))
    assert len(ds) == 10
    assert ds.n_classes == 1


def test_dataset_length_mismatch():
    with pytest.raises(ValueError):
        Dataset(np.zeros((10, 3)), np.zeros(9, dtype=int))


def test_dataset_unknown_task():
    with pytest.raises(ValueError):
        Dataset(np.zeros((2, 3)), np.zeros(2), task="regression")


def test_dataset_qa_target_shape_enforced():
    with pytest.raises(ValueError):
        Dataset(np.zeros((4, 8), dtype=int), np.zeros(4, dtype=int), task="qa")


def test_dataset_n_classes_rejected_for_qa():
    ds = Dataset(np.zeros((4, 8), dtype=int), np.zeros((4, 2), dtype=int), task="qa")
    with pytest.raises(ValueError):
        _ = ds.n_classes


def test_subset_copies():
    ds = Dataset(np.arange(10, dtype=float).reshape(10, 1), np.arange(10) % 2)
    sub = ds.subset(np.array([0, 2]))
    assert len(sub) == 2
    sub.inputs[...] = -1
    assert ds.inputs[0, 0] == 0.0


def test_train_test_split_fractions_and_disjoint():
    ds = make_image_classification(100, n_classes=4, image_size=4, seed=0)
    train, test = train_test_split(ds, test_fraction=0.25, seed=1)
    assert len(train) == 75 and len(test) == 25
    with pytest.raises(ValueError):
        train_test_split(ds, test_fraction=0.0)


# --------------------------------------------------------- synthetic images
def test_image_dataset_shapes_and_balance():
    ds = make_image_classification(200, n_classes=10, image_size=8, seed=0)
    assert ds.inputs.shape == (200, 3, 8, 8)
    counts = np.bincount(ds.targets, minlength=10)
    assert counts.max() - counts.min() <= 1


def test_image_dataset_deterministic():
    a = make_image_classification(50, seed=3)
    b = make_image_classification(50, seed=3)
    assert np.array_equal(a.inputs, b.inputs)
    assert np.array_equal(a.targets, b.targets)


def test_image_dataset_noise_controls_separability():
    """Nearest-prototype classification should be easier at low noise."""
    def separability(noise):
        ds = make_image_classification(300, n_classes=5, image_size=8, noise=noise, seed=0)
        # Estimate prototypes on one half, classify the other half.
        half = len(ds) // 2
        fit, ev = ds.subset(np.arange(half)), ds.subset(np.arange(half, len(ds)))
        protos = np.stack(
            [fit.inputs[fit.targets == c].mean(axis=0) for c in range(5)]
        )
        dists = ((ev.inputs[:, None] - protos[None]) ** 2).sum(axis=(2, 3, 4))
        return (dists.argmin(axis=1) == ev.targets).mean()

    assert separability(0.5) > separability(12.0)


def test_image_dataset_validation():
    with pytest.raises(ValueError):
        make_image_classification(5, n_classes=10)
    with pytest.raises(ValueError):
        make_image_classification(10, n_classes=1)
    for smoothness in (0.0, float("nan")):
        with pytest.raises(ValueError, match="prototype_smoothness"):
            make_image_classification(10, n_classes=2, prototype_smoothness=smoothness)


def _mirror(i, n):
    """Index ``i`` folded into [0, n) by edge-inclusive mirroring."""
    i %= 2 * n
    return i if i < n else 2 * n - 1 - i


@pytest.mark.parametrize("size, sigma", [(2, 2.0), (5, 1.5), (8, 1.0), (9, 2.0)])
def test_prototype_blur_matches_a_direct_loop(size, sigma):
    """The blur against scalar loops in the same arithmetic order — the
    centre tap, then each mirrored pair from the outermost inward — so the
    two agree bit for bit, pads wider than the image included."""
    x = np.random.default_rng(size).normal(size=(2, 2, size, size))
    r = int(4.0 * sigma + 0.5)
    w = np.exp(-0.5 / (sigma * sigma) * np.arange(-r, r + 1) ** 2)
    w = (w / w.sum())[r:].tolist()
    ref = x.copy()
    for axis in (2, 3):
        src = ref.copy()
        for idx in np.ndindex(*src.shape):
            def at(k):
                j = list(idx)
                j[axis] = _mirror(k, size)
                return float(src[tuple(j)])

            i = idx[axis]
            acc = at(i) * w[0]
            for j in range(r, 0, -1):
                acc += (at(i - j) + at(i + j)) * w[j]
            ref[idx] = acc
    assert np.array_equal(_blur(x, sigma), ref)


# --------------------------------------------------------------- synthetic QA
def test_qa_dataset_shapes():
    ds = make_extractive_qa(100, seq_len=16, seed=0)
    assert ds.inputs.shape == (100, 16)
    assert ds.targets.shape == (100, 2)
    assert ds.task == "qa"


def test_qa_spans_are_answer_vocab():
    lo, hi = ANSWER_VOCAB_RANGE
    ds = make_extractive_qa(50, seq_len=12, noise_flip_prob=0.0, seed=1)
    for tokens, (start, end) in zip(ds.inputs, ds.targets):
        assert 0 <= start <= end < 12
        assert np.all((tokens[start : end + 1] >= lo) & (tokens[start : end + 1] < hi))


def test_qa_context_outside_answer_vocab_when_no_noise():
    lo, hi = ANSWER_VOCAB_RANGE
    ds = make_extractive_qa(50, seq_len=12, noise_flip_prob=0.0, seed=2)
    for tokens, (start, end) in zip(ds.inputs, ds.targets):
        outside = np.r_[tokens[:start], tokens[end + 1 :]]
        assert np.all(outside >= hi)


def test_qa_validation():
    with pytest.raises(ValueError):
        make_extractive_qa(10, vocab_size=8)
    with pytest.raises(ValueError):
        make_extractive_qa(10, seq_len=4, max_answer_len=8)


def test_qa_deterministic():
    a = make_extractive_qa(30, seed=9)
    b = make_extractive_qa(30, seed=9)
    assert np.array_equal(a.inputs, b.inputs)


# ----------------------------------------------------------------- sharding
def test_shard_iid_covers_all_samples_once():
    ds = make_image_classification(101, n_classes=4, image_size=4, seed=0)
    shards = shard_iid(ds, 8, seed=0)
    assert sum(len(s) for s in shards) == 101
    assert max(len(s) for s in shards) - min(len(s) for s in shards) <= 1


def test_shard_iid_roughly_balanced_classes():
    ds = make_image_classification(400, n_classes=4, image_size=4, seed=0)
    shards = shard_iid(ds, 4, seed=0)
    for s in shards:
        counts = np.bincount(s.targets, minlength=4)
        assert counts.min() > 10  # IID: every class well represented


def test_shard_iid_validation():
    ds = make_image_classification(10, n_classes=2, image_size=4)
    with pytest.raises(ValueError):
        shard_iid(ds, 0)
    with pytest.raises(ValueError):
        shard_iid(ds, 11)


def test_shard_dirichlet_skews_classes():
    ds = make_image_classification(600, n_classes=6, image_size=4, seed=0)
    shards = shard_dirichlet(ds, 6, alpha=0.1, seed=0)
    assert sum(len(s) for s in shards) == 600
    # With alpha=0.1 at least one worker should be heavily skewed.
    max_frac = 0.0
    for s in shards:
        counts = np.bincount(s.targets, minlength=6)
        max_frac = max(max_frac, counts.max() / max(1, counts.sum()))
    assert max_frac > 0.5


def test_shard_dirichlet_every_worker_nonempty():
    ds = make_image_classification(60, n_classes=3, image_size=4, seed=0)
    shards = shard_dirichlet(ds, 10, alpha=0.05, seed=1)
    assert all(len(s) >= 1 for s in shards)


def test_shard_dirichlet_validation():
    ds = make_image_classification(20, n_classes=2, image_size=4)
    qa = make_extractive_qa(20)
    with pytest.raises(ValueError):
        shard_dirichlet(qa, 2)
    with pytest.raises(ValueError):
        shard_dirichlet(ds, 2, alpha=0)


# ------------------------------------------------------------------ loader
def test_loader_batch_shapes_and_count():
    ds = make_image_classification(100, n_classes=4, image_size=4, seed=0)
    loader = BatchLoader(ds, batch_size=16, seed=0)
    assert loader.batches_per_epoch == 6
    batches = list(loader.epoch(0))
    assert len(batches) == 6
    assert batches[0][0].shape == (16, 3, 4, 4)


def test_loader_epoch_reshuffles():
    ds = make_image_classification(64, n_classes=4, image_size=4, seed=0)
    loader = BatchLoader(ds, batch_size=32, seed=0)
    e0 = next(iter(loader.epoch(0)))[1]
    e1 = next(iter(loader.epoch(1)))[1]
    assert not np.array_equal(e0, e1)


def test_loader_same_epoch_deterministic():
    ds = make_image_classification(64, n_classes=4, image_size=4, seed=0)
    loader = BatchLoader(ds, batch_size=32, seed=0)
    a = next(iter(loader.epoch(5)))[0]
    b = next(iter(loader.epoch(5)))[0]
    assert np.array_equal(a, b)


def test_loader_random_access_matches_iterator():
    ds = make_image_classification(64, n_classes=4, image_size=4, seed=0)
    loader = BatchLoader(ds, batch_size=16, seed=3)
    for i, (x_iter, y_iter) in enumerate(loader.epoch(2)):
        x_ra, y_ra = loader.batch(2, i)
        assert np.array_equal(x_iter, x_ra)
        assert np.array_equal(y_iter, y_ra)


def test_loader_drop_last_false_includes_tail():
    ds = make_image_classification(50, n_classes=2, image_size=4, seed=0)
    loader = BatchLoader(ds, batch_size=16, seed=0, drop_last=False)
    sizes = [len(x) for x, _y in loader.epoch(0)]
    assert sizes == [16, 16, 16, 2]


def test_loader_validation():
    ds = make_image_classification(10, n_classes=2, image_size=4)
    with pytest.raises(ValueError):
        BatchLoader(ds, batch_size=0)
    with pytest.raises(ValueError):
        BatchLoader(ds, batch_size=16)  # bigger than shard with drop_last
    loader = BatchLoader(ds, batch_size=4)
    with pytest.raises(IndexError):
        loader.batch(0, 99)
