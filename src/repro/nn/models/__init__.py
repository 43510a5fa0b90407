"""Model zoo: mini-scale versions of the paper's five workload models plus
the :class:`~repro.nn.models.registry.ModelCard` registry carrying the
paper-scale parameter/FLOP counts used by the timing simulator."""

from repro._lazy import lazy_exports

__all__ = [
    "InceptionBlock",
    "MLP",
    "MODEL_CARDS",
    "MiniInception",
    "MiniResNet",
    "MiniVGG",
    "ModelCard",
    "ResidualBlock",
    "TinyBERT",
    "get_card",
    "synthetic_layer_sizes",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    __all__,
    {
        ".mlp": ("MLP",),
        ".vgg": ("MiniVGG",),
        ".resnet": ("MiniResNet", "ResidualBlock"),
        ".inception": ("InceptionBlock", "MiniInception"),
        ".bert": ("TinyBERT",),
        ".registry": ("MODEL_CARDS", "ModelCard", "get_card", "synthetic_layer_sizes"),
    },
)
