"""Loss functions and evaluation metrics."""

from __future__ import annotations

import numpy as np

from repro.autograd import functional as F
from repro.autograd.tensor import Tensor, no_grad


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy of ``logits`` (N, C) against integer ``labels`` (N,)."""
    labels = np.asarray(labels)
    if logits.ndim != 2:
        raise ValueError(f"logits must be 2-D (N, C), got {logits.shape}")
    if labels.shape != (logits.shape[0],):
        raise ValueError(
            f"labels shape {labels.shape} incompatible with logits {logits.shape}"
        )
    if not np.issubdtype(labels.dtype, np.integer):
        raise TypeError(f"labels must be integers, got {labels.dtype}")
    log_probs = F.log_softmax(logits, axis=-1)
    n = logits.shape[0]
    picked = log_probs[np.arange(n), labels]
    return -picked.mean()


def qa_span_loss(
    start_logits: Tensor,
    end_logits: Tensor,
    start_labels: np.ndarray,
    end_labels: np.ndarray,
) -> Tensor:
    """Extractive-QA loss: mean of start- and end-position cross-entropies,
    the standard BERT/SQuAD fine-tuning objective (§5.1.2)."""
    return (
        cross_entropy(start_logits, start_labels)
        + cross_entropy(end_logits, end_labels)
    ) * 0.5


def accuracy(logits: Tensor | np.ndarray, labels: np.ndarray) -> float:
    """Top-1 accuracy in [0, 1]."""
    data = logits.data if isinstance(logits, Tensor) else np.asarray(logits)
    pred = data.argmax(axis=-1)
    return float((pred == np.asarray(labels)).mean())


def qa_span_accuracy(
    start_logits: Tensor,
    end_logits: Tensor,
    start_labels: np.ndarray,
    end_labels: np.ndarray,
) -> float:
    """Span-level F1 proxy: mean of start/end position accuracies.

    (With single-token gold spans, token-level F1 reduces to position
    accuracy; we report the mean of start and end accuracy as the paper's
    F1-style metric for the NLP workload.)
    """
    return 0.5 * (accuracy(start_logits, start_labels) + accuracy(end_logits, end_labels))


__all__ = [
    "accuracy",
    "cross_entropy",
    "qa_span_accuracy",
    "qa_span_loss",
]
