"""Differential test of ``F.conv2d`` against an index-based reference.

``reference_conv2d`` is the convolution ``repro.autograd`` shipped before the
strided-window rewrite, kept here as the oracle: an int64 gather index as
large as the column matrix (``np.take``), the three contractions through
``np.einsum(optimize=True)``, and an in-order ``np.add.at`` scatter. The
production path must reproduce its output, ``dx`` and ``dw`` bit for bit, and
the memory layout of ``out`` and ``dx`` (downstream reductions iterate in
memory order, so layout decides *their* bits).
"""

import numpy as np
import pytest

from repro.autograd import Tensor, functional as F, no_grad
from repro.nn.models.registry import MODEL_CARDS


def reference_conv2d(x, w, stride, padding):
    """``(out, backward)`` with ``backward(g) -> (dx, dw)``; plain arrays."""
    n, c, h, wd = x.shape
    c_out, _, kh, kw = w.shape
    hp, wp = h + 2 * padding, wd + 2 * padding
    out_h = (hp - kh) // stride + 1
    out_w = (wp - kw) // stride + 1
    k = np.repeat(np.arange(c), kh * kw)[:, None]
    i = np.tile(np.repeat(np.arange(kh), kw), c)[:, None] + stride * np.repeat(np.arange(out_h), out_w)
    j = np.tile(np.arange(kw), kh * c)[:, None] + stride * np.tile(np.arange(out_w), out_h)
    flat = (k * hp + i) * wp + j  # (F, P) per-image offsets into the padded input
    offs = np.arange(n) * (c * hp * wp)
    x_padded = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    # (F, N, P) C-contiguous, handed to einsum as its (N, F, P) transpose view
    cols = np.take(x_padded.ravel(), flat[:, None, :] + offs[None, :, None]).transpose(1, 0, 2)
    w_row = w.reshape(c_out, -1)
    out = np.einsum("of,nfp->nop", w_row, cols, optimize=True).reshape(n, c_out, out_h, out_w)

    def backward(g):
        g2 = g.reshape(n, c_out, -1)
        dcols = np.ascontiguousarray(np.einsum("of,nop->nfp", w_row, g2, optimize=True))
        dx_padded = np.zeros(x_padded.shape, dtype=dcols.dtype)
        scatter_idx = flat[None, :, :] + offs[:, None, None]  # (N, F, P)
        np.add.at(dx_padded.reshape(-1), scatter_idx.reshape(-1), dcols.reshape(-1))
        dx = dx_padded[:, :, padding:-padding, padding:-padding] if padding else dx_padded
        dw = np.einsum("nop,nfp->of", g2, cols, optimize=True).reshape(w.shape)
        return dx, dw

    return out, backward


def _layout(a):
    """Strides of the axes that have more than one element (the stride of a
    length-1 axis is arbitrary and never used to address memory)."""
    return tuple(s for s, d in zip(a.strides, a.shape) if d > 1)


def _assert_same(got, want, what):
    assert got.dtype == want.dtype, f"{what}: dtype {got.dtype} != {want.dtype}"
    assert np.array_equal(got, want), f"{what}: values differ"
    assert _layout(got) == _layout(want), f"{what}: strides {got.strides} != {want.strides}"


def _grad_fns(y, *parents):
    """The backward closures ``conv2d`` recorded for ``parents``, in order."""
    recorded = {id(p): fn for p, fn in y._parents}
    return [recorded[id(p)] for p in parents]


def _check(x, w, stride, padding):
    """Forward and both backward closures against the reference, for an
    upstream gradient laid out like the output and for a C-contiguous one."""
    tx, tw = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
    tx.data, tw.data = x, w  # the constructor coerces to float64
    y = F.conv2d(tx, tw, None, stride=stride, padding=padding)
    ref_out, ref_backward = reference_conv2d(x, w, stride, padding)
    assert y.data.dtype == np.result_type(x, w)
    _assert_same(y.data, ref_out, "out")
    grad_x, grad_w = _grad_fns(y, tx, tw)
    g_like = np.empty_like(ref_out)  # keeps the output's (strided) layout
    g_like[...] = np.random.default_rng(7).normal(size=ref_out.shape)
    for g in (g_like, np.ascontiguousarray(g_like)):
        ref_dx, ref_dw = ref_backward(g)
        _assert_same(grad_x(g), ref_dx, "dx")
        _assert_same(grad_w(g), ref_dw, "dw")


#: Every distinct conv call the vision model cards make on a (25, 3, 16, 16)
#: training batch: (x shape, weight shape, stride, padding, x C-contiguous).
#: ``test_card_geometries_are_what_the_model_cards_produce`` keeps it current.
CARD_GEOMETRIES = [
    ((25, 3, 16, 16), (8, 3, 3, 3), 1, 1, True),
    ((25, 8, 16, 16), (8, 8, 3, 3), 1, 1, False),
    ((25, 8, 16, 16), (16, 8, 3, 3), 2, 1, False),
    ((25, 16, 8, 8), (16, 16, 3, 3), 1, 1, False),
    ((25, 8, 16, 16), (16, 8, 1, 1), 2, 0, False),  # 1x1 stride-2 shortcut
    ((25, 8, 8, 8), (16, 8, 3, 3), 1, 1, False),
    ((25, 8, 8, 8), (8, 8, 1, 1), 1, 0, False),
    ((25, 8, 8, 8), (8, 8, 3, 3), 1, 1, False),
    ((25, 32, 8, 8), (8, 32, 1, 1), 1, 0, False),
]


def test_card_geometries_are_what_the_model_cards_produce(monkeypatch):
    seen = set()
    real = F.conv2d

    def recording(x, weight, bias=None, stride=1, padding=0):
        seen.add((x.shape, weight.shape, stride, padding, bool(x.data.flags.c_contiguous)))
        return real(x, weight, bias, stride=stride, padding=padding)

    monkeypatch.setattr(F, "conv2d", recording)
    for card in MODEL_CARDS.values():
        if card.task != "qa":
            card.make_mini(seed=0)(Tensor(np.zeros((25, 3, 16, 16))))
    assert seen == set(CARD_GEOMETRIES)


def _nhwc_strided(rng, shape):
    """An NCHW array whose memory is NHWC, like a conv output."""
    n, c, h, w = shape
    return rng.normal(size=(n, h, w, c)).transpose(0, 3, 1, 2)


def _geometry_id(geometry):
    (_, c, h, w), (c_out, _, k, _), stride, padding, contiguous = geometry
    return f"{c}x{h}x{w}-o{c_out}k{k}s{stride}p{padding}-{'nchw' if contiguous else 'nhwc'}"


@pytest.mark.parametrize(
    "x_shape,w_shape,stride,padding,contiguous", CARD_GEOMETRIES, ids=map(_geometry_id, CARD_GEOMETRIES)
)
def test_matches_reference_on_model_card_geometry(x_shape, w_shape, stride, padding, contiguous):
    rng = np.random.default_rng(3)
    x = rng.normal(size=x_shape) if contiguous else _nhwc_strided(rng, x_shape)
    _check(x, rng.normal(size=w_shape), stride, padding)


AWKWARD = {
    "stride2_floor_trimmed_rows": ((2, 3, 5, 5), (4, 3, 2, 2), 2, 0),
    "stride2_floor_trimmed_padded": ((3, 2, 6, 6), (4, 2, 3, 3), 2, 1),
    "1x1_stride2_no_padding": ((4, 6, 8, 8), (5, 6, 1, 1), 2, 0),
    "kernel_equals_padded_input": ((4, 3, 3, 3), (5, 3, 5, 5), 1, 1),
    "kernel_equals_input": ((4, 3, 3, 3), (5, 3, 3, 3), 1, 0),
    "batch_of_one": ((1, 3, 6, 6), (4, 3, 3, 3), 1, 1),
    "eval_sized_batch": ((200, 8, 16, 16), (8, 8, 3, 3), 1, 1),
    "rectangular_kernel": ((2, 3, 7, 6), (4, 3, 3, 2), 1, 1),
    "stride3": ((2, 2, 10, 10), (3, 2, 3, 3), 3, 1),
}


@pytest.mark.parametrize("name", AWKWARD)
def test_matches_reference_on_awkward_geometry(name):
    x_shape, w_shape, stride, padding = AWKWARD[name]
    rng = np.random.default_rng(11)
    _check(rng.normal(size=x_shape), rng.normal(size=w_shape), stride, padding)


@pytest.mark.parametrize("padding", [0, 1])
def test_matches_reference_on_nhwc_strided_input(padding):
    rng = np.random.default_rng(5)
    x = _nhwc_strided(rng, (6, 4, 8, 8))
    assert not x.flags.c_contiguous
    _check(x, rng.normal(size=(5, 4, 3, 3)), 1, padding)


def _assert_same_bytes(got, want, what):
    """``_assert_same`` with NaN: every element's bytes, NaN payloads and
    the sign of zero included."""
    assert got.dtype == want.dtype, f"{what}: dtype {got.dtype} != {want.dtype}"
    assert got.tobytes() == want.tobytes(), f"{what}: bytes differ"
    assert _layout(got) == _layout(want), f"{what}: strides {got.strides} != {want.strides}"


def _poison(a, rng):
    """``a`` with a NaN at ``a[0, 0, 0, 0]`` (read by every geometry) and a
    +inf and a -inf at two random places."""
    a = a.copy()
    flat = a.reshape(-1) if a.flags.c_contiguous else a.transpose(0, 2, 3, 1).reshape(-1)
    assert np.shares_memory(flat, a)
    flat[[0, *rng.choice(np.arange(1, flat.size), 2, replace=False)]] = (np.nan, np.inf, -np.inf)
    return a


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("poisoned", ["x", "w", "g", "xwg"])
@pytest.mark.parametrize(
    "x_shape,w_shape,stride,padding,contiguous", CARD_GEOMETRIES, ids=map(_geometry_id, CARD_GEOMETRIES)
)
def test_non_finite_values_land_where_the_reference_puts_them(
    x_shape, w_shape, stride, padding, contiguous, poisoned
):
    # inf and NaN in an operand spread through every sum that reads them
    # (inf * 0 is NaN, inf - inf is NaN): out, dx and dw must hold the
    # reference's bytes, so a kernel that multiplies a padding or junk
    # column it should never have read shows here.
    rng = np.random.default_rng(19)
    x = rng.normal(size=x_shape) if contiguous else _nhwc_strided(rng, x_shape)
    w = rng.normal(size=w_shape)
    x = _poison(x, rng) if "x" in poisoned else x
    w = _poison(w, rng) if "w" in poisoned else w
    tx, tw = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
    y = F.conv2d(tx, tw, None, stride=stride, padding=padding)
    ref_out, ref_backward = reference_conv2d(x, w, stride, padding)
    _assert_same_bytes(y.data, ref_out, "out")
    g = np.empty_like(ref_out)  # the output's (NHWC) layout, like a real upstream
    g[...] = rng.normal(size=ref_out.shape)
    g = _poison(g, rng) if "g" in poisoned else g
    grad_x, grad_w = _grad_fns(y, tx, tw)
    ref_dx, ref_dw = ref_backward(g)
    _assert_same_bytes(grad_x(g), ref_dx, "dx")
    _assert_same_bytes(grad_w(g), ref_dw, "dw")
    assert not np.isfinite(ref_dx if poisoned == "g" else ref_out).all()
    assert np.isfinite(ref_dx).any(), "the poison reached every element: nothing is pinned"


def test_float32_input_float64_weights_follow_result_type():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(3, 2, 6, 6)).astype(np.float32)
    _check(x, rng.normal(size=(4, 2, 3, 3)), 1, 1)


def test_float32_input_and_weights_stay_float32():
    rng = np.random.default_rng(13)
    x = rng.normal(size=(3, 2, 6, 6)).astype(np.float32)
    w = rng.normal(size=(4, 2, 3, 3)).astype(np.float32)
    _check(x, w, 2, 1)


def test_single_feature_conv_is_pinned_to_the_one_layout():
    # The one geometry excluded from the bit-identity contract (conv2d's
    # docstring): with c_in*kh*kw == 1 there is nothing to contract, and the
    # reference's einsum takes a broadcast multiply (C-contiguous output) and
    # a matrix-vector product. conv2d has one layout and one operand order
    # for every geometry. The layout difference and a 4-ulp bound on dx are
    # both asserted, so a numpy that closes or widens the gap fails here and
    # the exclusion gets revisited.
    rng = np.random.default_rng(17)
    x, w = rng.normal(size=(4, 1, 4, 4)), rng.normal(size=(3, 1, 1, 1))
    tx, tw = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
    y = F.conv2d(tx, tw)
    ref_out, ref_backward = reference_conv2d(x, w, 1, 0)
    assert np.array_equal(y.data, ref_out)
    assert y.data.transpose(0, 2, 3, 1).flags.c_contiguous  # NHWC memory, as everywhere
    assert ref_out.flags.c_contiguous and _layout(y.data) != _layout(ref_out)
    g = rng.normal(size=ref_out.shape)
    grad_x, grad_w = _grad_fns(y, tx, tw)
    dx, (ref_dx, ref_dw) = grad_x(g), ref_backward(g)
    assert np.abs(dx - ref_dx).max() <= 4 * np.spacing(np.abs(ref_dx).max())
    np.testing.assert_array_equal(grad_w(g), ref_dw)


def test_empty_batch_forward_and_backward():
    tx = Tensor(np.zeros((0, 3, 8, 8)), requires_grad=True)
    tw = Tensor(np.ones((4, 3, 3, 3)), requires_grad=True)
    y = F.conv2d(tx, tw, None, stride=1, padding=1)
    assert y.shape == (0, 4, 8, 8)
    y.sum().backward()
    assert tx.grad.shape == (0, 3, 8, 8)
    assert np.array_equal(tw.grad, np.zeros((4, 3, 3, 3)))


# ------------------------------------------------------------ untaped forward
def _taped_and_untaped(x, w, stride, padding):
    """``conv2d`` of the same operands with the weight's gradient recorded
    (the whole batch's column matrix, kept for ``grad_w``) and under
    ``no_grad`` (the images a cache-sized block at a time)."""
    tx, tw = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
    tx.data, tw.data = x, w  # the constructor coerces to float64
    taped = F.conv2d(tx, tw, None, stride=stride, padding=padding)
    with no_grad():
        untaped = F.conv2d(tx, tw, None, stride=stride, padding=padding)
    assert taped.requires_grad and not untaped.requires_grad
    return taped.data, untaped.data


@pytest.mark.parametrize("batch", [200, 7, 1, 0])
@pytest.mark.parametrize(
    "x_shape,w_shape,stride,padding,contiguous", CARD_GEOMETRIES, ids=map(_geometry_id, CARD_GEOMETRIES)
)
def test_untaped_forward_has_the_taped_bits_and_layout(
    x_shape, w_shape, stride, padding, contiguous, batch
):
    # 200 is the evaluation batch; 7 and 1 leave a partial last block on
    # every geometry whose block holds more than one image, 0 runs no block.
    rng = np.random.default_rng(23)
    x_shape = (batch, *x_shape[1:])
    x = rng.normal(size=x_shape) if contiguous else _nhwc_strided(rng, x_shape)
    taped, untaped = _taped_and_untaped(x, rng.normal(size=w_shape), stride, padding)
    _assert_same_bytes(untaped, taped, "out")


def test_untaped_forward_follows_the_result_type():
    rng = np.random.default_rng(29)
    x = rng.normal(size=(7, 2, 6, 6)).astype(np.float32)
    for w in (rng.normal(size=(4, 2, 3, 3)), rng.normal(size=(4, 2, 3, 3)).astype(np.float32)):
        taped, untaped = _taped_and_untaped(x, w, 1, 1)
        assert untaped.dtype == np.result_type(x, w)
        _assert_same_bytes(untaped, taped, "out")


def test_a_frozen_weight_still_records_grad_x():
    # The weight's gradient is not recorded, so the forward runs in blocks,
    # and the input's gradient must still reach x, with the reference's bits.
    rng = np.random.default_rng(31)
    x, w = rng.normal(size=(7, 8, 16, 16)), rng.normal(size=(8, 8, 3, 3))
    tx, tw = Tensor(x, requires_grad=True), Tensor(w)
    y = F.conv2d(tx, tw, None, stride=1, padding=1)
    ref_out, ref_backward = reference_conv2d(x, w, 1, 1)
    _assert_same(y.data, ref_out, "out")
    assert [p for p, _ in y._parents] == [tx]
    g = rng.normal(size=ref_out.shape)
    (grad_x,) = _grad_fns(y, tx)
    _assert_same(grad_x(g), ref_backward(g)[0], "dx")


def test_untaped_forward_holds_no_column_matrix():
    # The evaluation pass's largest conv. Taped, the column matrix alone is
    # 9x the input. Untaped, the forward may hold its output (1x the input
    # here), one block of columns and one padded block, and nothing
    # batch-sized besides.
    import tracemalloc

    rng = np.random.default_rng(37)
    x = Tensor(rng.normal(size=(200, 8, 16, 16)))
    wt = Tensor(rng.normal(size=(8, 8, 3, 3)), requires_grad=True)
    with no_grad():
        tracemalloc.start()
        try:
            F.conv2d(x, wt, None, stride=1, padding=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 1.5 * x.data.nbytes, f"{peak / x.data.nbytes:.2f}x the input"


# ------------------------------------------------------- work-count witnesses
def _fifty_geometries():
    geometries = []
    for n in (1, 3):
        for c in (1, 4):
            for size in (5, 8):
                for k, stride, padding in ((1, 1, 0), (1, 2, 0), (2, 2, 0), (3, 1, 1), (3, 2, 1), (3, 1, 0), (5, 1, 2)):
                    geometries.append((n, c, size, size, k, stride, padding))
    return geometries[:50]


def test_conv2d_keeps_no_per_geometry_state():
    import tracemalloc

    def sweep():
        rng = np.random.default_rng(0)
        for n, c, h, w, k, stride, padding in _fifty_geometries():
            x = Tensor(rng.normal(size=(n, c, h, w)), requires_grad=True)
            wt = Tensor(rng.normal(size=(3, c, k, k)), requires_grad=True)
            F.conv2d(x, wt, None, stride=stride, padding=padding).sum().backward()
            with no_grad():
                F.conv2d(x, wt, None, stride=stride, padding=padding)

    assert len(set(_fifty_geometries())) == 50
    sweep()  # numpy's own lazy set-up and caches happen here, not below
    module_state = {name: id(value) for name, value in vars(F).items()}
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        sweep()
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert after - before < 16 * 1024, f"{after - before} bytes survived 50 geometries"
    assert {name: id(value) for name, value in vars(F).items()} == module_state
    assert not hasattr(F, "_CONV_GEOM_CACHE")


def test_conv2d_allocates_no_index_array():
    # An index-based im2col reads an int64 array as large as the column
    # matrix (kh*kw times the input) on the way in and another on the way
    # back. With no cache to hide them in (above), they would show as peak
    # memory: each pass may hold one column matrix plus a few input-sized
    # buffers (padded input, output, upstream gradient and its transposed
    # copy) and no more.
    import tracemalloc

    rng = np.random.default_rng(1)
    x = Tensor(rng.normal(size=(25, 8, 16, 16)), requires_grad=True)
    wt = Tensor(rng.normal(size=(8, 8, 3, 3)), requires_grad=True)
    budget = (3 * 3 + 4) * x.data.nbytes

    def peak_of(fn):
        tracemalloc.start()
        try:
            result = fn()
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    y, forward_peak = peak_of(lambda: F.conv2d(x, wt, None, stride=1, padding=1))
    assert forward_peak < budget, forward_peak
    (grad_x,) = _grad_fns(y, x)
    _, backward_peak = peak_of(lambda: grad_x(np.ones(y.shape)))
    assert backward_peak < budget, backward_peak
