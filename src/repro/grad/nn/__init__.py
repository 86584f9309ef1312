"""Neural-network building blocks on top of :mod:`repro.grad`."""

from repro.grad.nn.module import Module, Parameter
from repro.grad.nn.layers import (
    BatchNorm1d,
    BatchNorm2d,
    Conv2d,
    Flatten,
    GroupNorm,
    Identity,
    Linear,
    MaxPool2d,
    ReLU,
    Sequential,
)
from repro.grad.nn.losses import CrossEntropyLoss

__all__ = [
    "Module",
    "Parameter",
    "Linear",
    "Conv2d",
    "MaxPool2d",
    "BatchNorm1d",
    "BatchNorm2d",
    "GroupNorm",
    "ReLU",
    "Flatten",
    "Identity",
    "Sequential",
    "CrossEntropyLoss",
]
