"""Build models by name, with shapes taken from a :class:`DatasetInfo`.

Model builders live in the unified :class:`repro.registry.Registry`;
each factory takes ``(info, rng, **kwargs)`` and returns a constructed
:class:`~repro.grad.nn.module.Module`.
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import DatasetInfo
from repro.grad.nn.module import Module
from repro.models.cnn import PaperCNN
from repro.models.mlp import LogisticRegression, TabularMLP
from repro.models.resnet import resnet8, resnet20, resnet50
from repro.models.vgg import vgg9
from repro.registry import Registry

MODELS = Registry("model")


def _tabular_factory(cls):
    def build(info: DatasetInfo, rng: np.random.Generator, **kwargs) -> Module:
        return cls(
            in_features=info.num_features,
            num_classes=info.num_classes,
            rng=rng,
            **kwargs,
        )

    return build


def _image_factory(name: str, builder, needs_image_size: bool = True):
    def build(info: DatasetInfo, rng: np.random.Generator, **kwargs) -> Module:
        if info.modality != "image":
            raise ValueError(
                f"model {name!r} needs image input, dataset is {info.modality}"
            )
        channels, height, width = info.input_shape
        if height != width:
            raise ValueError(f"expected square images, got {info.input_shape}")
        extra = {"image_size": height} if needs_image_size else {}
        return builder(
            in_channels=channels,
            num_classes=info.num_classes,
            rng=rng,
            **extra,
            **kwargs,
        )

    return build


MODELS.register(
    "cnn", _image_factory("cnn", PaperCNN), summary="the paper's simple CNN (images)"
)
MODELS.register(
    "mlp", _tabular_factory(TabularMLP), summary="the paper's MLP (tabular)"
)
MODELS.register(
    "logistic", _tabular_factory(LogisticRegression), summary="linear baseline (tabular)"
)
MODELS.register("vgg9", _image_factory("vgg9", vgg9), summary="VGG-9 (images)")
MODELS.register(
    "resnet8",
    _image_factory("resnet8", resnet8, needs_image_size=False),
    summary="8-layer ResNet (images)",
)
MODELS.register(
    "resnet20",
    _image_factory("resnet20", resnet20, needs_image_size=False),
    summary="20-layer ResNet (images)",
)
MODELS.register(
    "resnet50",
    _image_factory("resnet50", resnet50, needs_image_size=False),
    summary="50-layer bottleneck ResNet (images)",
)

MODEL_NAMES = MODELS.names()


def default_model_for(info: DatasetInfo) -> str:
    """The paper's model choice: CNN for images, MLP for tabular data."""
    return "cnn" if info.modality == "image" else "mlp"


def build_model(
    name: str,
    info: DatasetInfo,
    seed: int = 0,
    **kwargs,
) -> Module:
    """Construct a model suited to ``info`` with deterministic init.

    Parameters
    ----------
    name:
        One of :data:`MODEL_NAMES`, or ``"default"`` for the paper's
        per-modality choice.
    info:
        Dataset description providing input shape and class count.
    seed:
        Seeds the weight initialization.
    kwargs:
        Forwarded to the model constructor (e.g. ``width`` for vgg9,
        ``base_width`` for resnet50).
    """
    rng = np.random.default_rng(seed)
    key = name.lower()
    if key == "default":
        key = default_model_for(info)
    return MODELS.build(key, info, rng, **kwargs)
