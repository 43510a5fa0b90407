"""Unit tests for the model zoo, losses, and model cards."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.nn import (
    MultiHeadSelfAttention,
    TransformerBlock,
    accuracy,
    cross_entropy,
    qa_span_accuracy,
    qa_span_loss,
)
from repro.nn.models import (
    MLP,
    MODEL_CARDS,
    MiniInception,
    MiniResNet,
    MiniVGG,
    TinyBERT,
    get_card,
    synthetic_layer_sizes,
)


def rng(seed=0):
    return np.random.default_rng(seed)


# ----------------------------------------------------------------- losses
def test_cross_entropy_uniform_logits():
    logits = Tensor(np.zeros((4, 10)), requires_grad=True)
    loss = cross_entropy(logits, np.zeros(4, dtype=int))
    assert loss.item() == pytest.approx(np.log(10))


def test_cross_entropy_perfect_prediction_low_loss():
    logits = np.full((2, 3), -20.0)
    logits[0, 1] = logits[1, 2] = 20.0
    loss = cross_entropy(Tensor(logits, requires_grad=True), np.array([1, 2]))
    assert loss.item() < 1e-6


def test_cross_entropy_validation():
    with pytest.raises(ValueError):
        cross_entropy(Tensor(np.zeros(3), requires_grad=True), np.array([0]))
    with pytest.raises(ValueError):
        cross_entropy(Tensor(np.zeros((2, 3)), requires_grad=True), np.array([0]))
    with pytest.raises(TypeError):
        cross_entropy(Tensor(np.zeros((2, 3)), requires_grad=True), np.array([0.5, 1.0]))


def test_cross_entropy_gradient_signs():
    logits = Tensor(np.zeros((1, 3)), requires_grad=True)
    cross_entropy(logits, np.array([0])).backward()
    assert logits.grad[0, 0] < 0  # push up the true class
    assert logits.grad[0, 1] > 0


def test_accuracy_metric():
    logits = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    assert accuracy(logits, np.array([0, 1, 1])) == pytest.approx(2 / 3)


def test_qa_span_loss_and_accuracy():
    s = Tensor(np.zeros((2, 8)), requires_grad=True)
    e = Tensor(np.zeros((2, 8)), requires_grad=True)
    starts, ends = np.array([1, 2]), np.array([3, 4])
    loss = qa_span_loss(s, e, starts, ends)
    assert loss.item() == pytest.approx(np.log(8))
    acc = qa_span_accuracy(s, e, starts, ends)
    assert 0.0 <= acc <= 1.0


# ----------------------------------------------------------------- models
def test_mlp_forward_and_train_step():
    m = MLP([8, 16, 3], seed=0)
    x = np.random.default_rng(0).normal(size=(5, 8))
    out = m(x)
    assert out.shape == (5, 3)
    cross_entropy(out, np.array([0, 1, 2, 0, 1])).backward()
    assert all(p.grad is not None for p in m.parameters())


def test_mlp_validation():
    with pytest.raises(ValueError):
        MLP([4])


def test_mlp_flattens_images():
    m = MLP([3 * 4 * 4, 8, 2], seed=0)
    assert m(np.zeros((2, 3, 4, 4))).shape == (2, 2)


def test_minivgg_forward_backward():
    m = MiniVGG(n_classes=10, seed=0)
    x = np.random.default_rng(1).normal(size=(2, 3, 16, 16))
    out = m(x)
    assert out.shape == (2, 10)
    cross_entropy(out, np.array([3, 7])).backward()
    assert all(p.grad is not None for p in m.parameters())


def test_minivgg_param_heavy_head():
    """VGG family property: classifier head holds most parameters."""
    m = MiniVGG(seed=0)
    head = sum(p.size for _n, p in m.classifier.named_parameters())
    total = m.num_parameters()
    assert head / total > 0.5


def test_minivgg_rejects_bad_image_size():
    with pytest.raises(ValueError):
        MiniVGG(image_size=10)


def test_miniresnet_forward_backward():
    m = MiniResNet(n_classes=10, seed=0)
    x = np.random.default_rng(2).normal(size=(2, 3, 16, 16))
    out = m(x)
    assert out.shape == (2, 10)
    cross_entropy(out, np.array([0, 1])).backward()
    assert all(p.grad is not None for p in m.parameters())


def test_miniresnet_depth_configurable():
    shallow = MiniResNet(blocks_per_stage=(1, 1), seed=0)
    deep = MiniResNet(blocks_per_stage=(2, 2), seed=0)
    assert deep.num_parameters() > shallow.num_parameters()


def test_miniinception_forward_backward():
    m = MiniInception(n_classes=20, seed=0)
    x = np.random.default_rng(3).normal(size=(2, 3, 16, 16))
    out = m(x)
    assert out.shape == (2, 20)
    cross_entropy(out, np.array([5, 10])).backward()
    assert all(p.grad is not None for p in m.parameters())


def test_tinybert_forward_backward():
    m = TinyBERT(vocab_size=32, max_seq=8, dim=16, n_heads=2, n_layers=1, seed=0)
    tokens = np.random.default_rng(4).integers(0, 32, size=(3, 8))
    s, e = m(tokens)
    assert s.shape == (3, 8)
    assert e.shape == (3, 8)
    qa_span_loss(s, e, np.array([0, 1, 2]), np.array([3, 4, 5])).backward()
    assert all(p.grad is not None for p in m.parameters())


def test_tinybert_validates_seq_len():
    m = TinyBERT(max_seq=8)
    with pytest.raises(ValueError):
        m(np.zeros((1, 16), dtype=int))
    with pytest.raises(ValueError):
        m(np.zeros(8, dtype=int))


def test_attention_shapes():
    attn = MultiHeadSelfAttention(16, 4, rng())
    x = Tensor(np.random.default_rng(0).normal(size=(2, 5, 16)))
    assert attn(x).shape == (2, 5, 16)


def test_attention_validates_dims():
    with pytest.raises(ValueError):
        MultiHeadSelfAttention(10, 3, rng())
    attn = MultiHeadSelfAttention(16, 4, rng())
    with pytest.raises(ValueError):
        attn(Tensor(np.zeros((1, 5, 8))))


def test_transformer_block_residual():
    blk = TransformerBlock(16, 2, rng())
    x = Tensor(np.random.default_rng(1).normal(size=(2, 4, 16)))
    assert blk(x).shape == (2, 4, 16)


def test_models_deterministic_by_seed():
    a, b = MiniVGG(seed=7), MiniVGG(seed=7)
    for (n1, p1), (n2, p2) in zip(a.named_parameters(), b.named_parameters()):
        assert n1 == n2
        assert np.array_equal(p1.data, p2.data)


# ------------------------------------------------------------- model cards
def test_all_five_paper_workloads_present():
    assert {
        "resnet50-cifar10",
        "vgg16-cifar10",
        "inceptionv3-cifar100",
        "resnet101-imagenet",
        "bertbase-squad",
        "resnet152-cifar10",  # §1 motivation experiment
    } <= set(MODEL_CARDS)


def test_card_paper_scale_numbers():
    vgg = get_card("vgg16-cifar10")
    assert vgg.paper_params == 138_357_544
    assert vgg.model_bytes == vgg.paper_params * 4
    bert = get_card("bertbase-squad")
    assert bert.batch_size == 12
    assert bert.metric == "f1"


def test_get_card_unknown():
    with pytest.raises(KeyError, match="vgg16-cifar10"):
        get_card("alexnet")


def test_synthetic_layer_sizes_sum_exactly():
    for card in MODEL_CARDS.values():
        sizes = synthetic_layer_sizes(card)
        assert sizes.sum() == card.paper_params
        assert len(sizes) == card.paper_layers
        assert (sizes > 0).all()


def test_synthetic_layer_sizes_vgg_head_dominates():
    sizes = synthetic_layer_sizes(get_card("vgg16-cifar10"))
    assert sizes[-3:].sum() / sizes.sum() > 0.7


def test_synthetic_layer_sizes_bert_embedding_large():
    sizes = synthetic_layer_sizes(get_card("bertbase-squad"))
    assert sizes[0] > 2 * sizes[1]


def test_mini_factories_build():
    for card in MODEL_CARDS.values():
        model = card.make_mini(seed=1)
        assert model.num_parameters() > 0
