"""Unit + property tests for gradient compressors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import (
    RandomK,
    ResidualMemory,
    TopK,
    Uniform8Bit,
    dense_bytes,
)


def residual_norm(memory: ResidualMemory) -> float:
    """L2 norm of the error ``memory`` carries forward."""
    return float(np.sqrt(sum(float((r**2).sum()) for r in memory._residual.values())))


def grads(seed=0, sizes=((10,), (4, 5))):
    rng = np.random.default_rng(seed)
    return {f"p{i}": rng.normal(size=s) for i, s in enumerate(sizes)}


def test_dense_bytes():
    g = grads()
    assert dense_bytes(g) == (10 + 20) * 4


# ------------------------------------------------------------------- TopK
def test_topk_keeps_largest():
    g = {"w": np.array([0.1, -5.0, 0.2, 3.0])}
    payload, wire = TopK(0.5).compress(g)
    out = TopK(0.5).decompress(payload)
    assert np.allclose(out["w"], [0, -5.0, 0, 3.0])
    assert wire == 2 * 8 + 4  # 2 kept entries + 1 tensor's metadata


def test_topk_full_ratio_lossless():
    g = grads()
    c = TopK(1.0)
    out = c.decompress(c.compress(g)[0])
    for k in g:
        assert np.allclose(out[k], g[k])


def test_topk_exact_k_with_ties():
    g = {"w": np.ones(10)}
    payload, _ = TopK(0.3).compress(g)
    assert payload["indices"].size == 3


def test_topk_shapes_preserved():
    g = grads()
    out = TopK(0.2).decompress(TopK(0.2).compress(g)[0])
    for k in g:
        assert out[k].shape == g[k].shape


def test_topk_wire_smaller_than_dense():
    g = grads(sizes=((1000,),))
    _p, wire = TopK(0.1).compress(g)
    assert wire < dense_bytes(g)


def test_topk_validation():
    with pytest.raises(ValueError):
        TopK(0.0)
    with pytest.raises(ValueError):
        TopK(1.5)


@given(st.integers(min_value=0, max_value=2**31 - 1), st.floats(min_value=0.05, max_value=1.0))
@settings(max_examples=50, deadline=None)
def test_property_topk_reconstruction_subset(seed, ratio):
    g = grads(seed=seed, sizes=((37,), (8, 3)))
    c = TopK(ratio)
    out = c.decompress(c.compress(g)[0])
    for k in g:
        nz = out[k] != 0
        # kept entries match original exactly; zeros elsewhere
        assert np.allclose(out[k][nz], g[k][nz])


def test_topk_exact_k_with_ties_across_tensors():
    # 10 identical magnitudes split over two tensors: the tie-trim must
    # still land on exactly k kept entries.
    g = {"a": np.ones(6), "b": -np.ones(4)}
    payload, _ = TopK(0.5).compress(g)
    assert payload["indices"].size == 5


def test_topk_decompress_preserves_dtype():
    g = {"w": np.random.default_rng(0).normal(size=8).astype(np.float32)}
    out = TopK(0.5).decompress(TopK(0.5).compress(g)[0])
    assert out["w"].dtype == np.float32


def test_topk_wire_counts_per_tensor_metadata():
    # dense_bytes convention: 4 bytes/float. Sparse wire = kept x (4-byte
    # value + 4-byte index) + 4 bytes of metadata per tensor, matching
    # Uniform8Bit's 4-bytes/tensor scale accounting.
    g = grads(sizes=((10,), (4, 5)))  # 30 entries, 2 tensors
    _p, wire = TopK(0.2).compress(g)  # k = 6
    assert wire == 6 * 8 + 2 * 4
    assert dense_bytes(g) == 30 * 4


def test_randomk_wire_matches_topk_convention():
    g = grads(sizes=((10,), (4, 5)))
    _pt, wt = TopK(0.2).compress(g)
    _pr, wr = RandomK(0.2, seed=0).compress(g)
    assert wt == wr


# ---------------------------------------------------------------- RandomK
def test_randomk_unbiased_scaling():
    g = {"w": np.ones(1000)}
    c = RandomK(0.25, seed=0)
    out = c.decompress(c.compress(g)[0])
    kept = out["w"][out["w"] != 0]
    assert np.allclose(kept, 4.0)  # 1/0.25


def test_randomk_expectation_approximates_dense():
    g = {"w": np.ones(500)}
    acc = np.zeros(500)
    c = RandomK(0.2, seed=1)
    for _ in range(200):
        acc += c.decompress(c.compress(g)[0])["w"]
    mean = acc / 200
    # Coordinate-wise it is Bernoulli(0.2)x5 averaged over 200 draws; check
    # the global mean tightly and coordinates loosely (4.5 sigma).
    assert mean.mean() == pytest.approx(1.0, abs=0.05)
    assert np.abs(mean - 1.0).max() < 4.5 * 5 * np.sqrt(0.2 * 0.8 / 200)


def test_randomk_deterministic_with_seed():
    g = grads()
    a = RandomK(0.3, seed=5).compress(g)[0]["indices"]
    b = RandomK(0.3, seed=5).compress(g)[0]["indices"]
    assert np.array_equal(a, b)


def test_randomk_validation():
    with pytest.raises(ValueError):
        RandomK(0)


# ----------------------------------------------------------------- 8-bit
def test_quantize_roundtrip_error_bounded():
    g = grads(seed=2)
    c = Uniform8Bit()
    out = c.decompress(c.compress(g)[0])
    for k in g:
        scale = np.abs(g[k]).max()
        assert np.abs(out[k] - g[k]).max() <= scale / 127 + 1e-12


def test_quantize_wire_is_quarter_of_dense():
    g = grads(sizes=((1000,),))
    _p, wire = Uniform8Bit().compress(g)
    assert wire == 1000 + 4
    assert wire < dense_bytes(g) / 3


def test_quantize_zero_tensor():
    g = {"w": np.zeros(10)}
    c = Uniform8Bit()
    out = c.decompress(c.compress(g)[0])
    assert np.allclose(out["w"], 0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_quantize_nonfinite_roundtrips_to_zeros(bad):
    # Regression: a single NaN/inf entry made scale non-finite and the
    # int8 cast undefined. The poisoned tensor now takes the zero path.
    g = {"w": np.array([0.5, bad, -1.0]), "ok": np.array([1.0, 2.0])}
    c = Uniform8Bit()
    payload, wire = c.compress(g)
    q, scale = payload["w"]
    assert scale == 0.0
    assert q.dtype == np.int8 and not q.any()
    out = c.decompress(payload)
    assert np.all(out["w"] == 0.0)
    assert np.isfinite(out["ok"]).all()  # healthy tensors unaffected
    assert wire == 3 + 4 + 2 + 4


def test_quantize_nonfinite_deterministic():
    g = {"w": np.array([np.nan, np.inf, 1.0])}
    a = Uniform8Bit().compress(g)[0]["w"]
    b = Uniform8Bit().compress(g)[0]["w"]
    assert np.array_equal(a[0], b[0]) and a[1] == b[1] == 0.0


# ------------------------------------------------------------- residual EF
def test_residual_memory_carries_error_forward():
    c = ResidualMemory(TopK(0.5))
    g = {"w": np.array([10.0, 1.0])}
    p1, _ = c.compress(g)
    sent1 = c.decompress(p1)
    assert np.allclose(sent1["w"], [10.0, 0.0])
    # Second round: residual [0, 1] added to fresh grad, so the small
    # coordinate eventually wins transmission.
    p2, _ = c.compress({"w": np.array([0.0, 1.0])})
    sent2 = c.decompress(p2)
    assert sent2["w"][1] == pytest.approx(2.0)


def test_residual_memory_nothing_lost_in_total():
    """Sum of transmissions equals sum of gradients (delay, don't drop)."""
    rng = np.random.default_rng(0)
    c = ResidualMemory(TopK(0.3))
    total_in = np.zeros(20)
    total_out = np.zeros(20)
    for _ in range(50):
        g = {"w": rng.normal(size=20)}
        total_in += g["w"]
        total_out += c.decompress(c.compress(g)[0])["w"]
    # residual bounds the difference
    assert np.abs(total_in - total_out).max() <= residual_norm(c) + 1e-9


def test_residual_norm_zero_initially():
    assert residual_norm(ResidualMemory(TopK(0.5))) == 0.0


def test_residual_survives_disjoint_layer_sets():
    # Regression: compressing layer set A then disjoint set B used to wipe
    # A's residuals — error feedback silently dropped gradient mass when
    # calls alternate between layer partitions (as RS/ICS scheduling does).
    rng = np.random.default_rng(1)
    c = ResidualMemory(TopK(0.3))
    sets = (("a", "b"), ("c", "d"))
    total_in = {k: np.zeros(16) for s in sets for k in s}
    total_out = {k: np.zeros(16) for s in sets for k in s}
    for step in range(40):
        names = sets[step % 2]
        g = {k: rng.normal(size=16) for k in names}
        for k in names:
            total_in[k] += g[k]
        sent = c.decompress(c.compress(g)[0])
        for k in names:
            total_out[k] += sent[k]
    # Every layer's residual is still tracked, and what was withheld is
    # exactly the carried residual — nothing was lost across alternations.
    assert set(c._residual) == {"a", "b", "c", "d"}
    for k, r in c._residual.items():
        assert np.allclose(total_in[k] - total_out[k], r, atol=1e-9)


def test_residual_with_lossless_inner_keeps_no_residual():
    c = ResidualMemory(TopK(1.0))
    c.compress(grads())
    assert residual_norm(c) == pytest.approx(0.0)
