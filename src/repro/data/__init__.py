"""Synthetic datasets, worker sharding, and batch loading.

Substitutes for CIFAR-10/100, ImageNet-1K and SQuAD v1.1 (offline
environment — see DESIGN.md §2): Gaussian-mixture image classification
tasks with controllable class separability, and a synthetic extractive-QA
task where a transformer must locate an answer-token span.

Sharding supports IID splits and Dirichlet non-IID splits (the data regime
the paper notes HSP mishandles, §2.2.1). Loaders reshuffle every epoch, as
OSP requires (§4.2: "the local dataset is shuffled every epoch ... to
prevent a fixed portion of the dataset from always being trained with
outdated parameters after LGP").
"""

from repro._lazy import lazy_exports

__all__ = [
    "ANSWER_VOCAB_RANGE",
    "BatchLoader",
    "Dataset",
    "make_extractive_qa",
    "make_image_classification",
    "shard_dirichlet",
    "shard_iid",
    "train_test_split",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    __all__,
    {
        ".dataset": ("Dataset", "train_test_split"),
        ".synthetic_images": ("make_image_classification",),
        ".synthetic_qa": ("ANSWER_VOCAB_RANGE", "make_extractive_qa"),
        ".shard": ("shard_dirichlet", "shard_iid"),
        ".loader": ("BatchLoader",),
    },
)
