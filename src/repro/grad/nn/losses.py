"""Loss modules wrapping :mod:`repro.grad.functional`."""

from __future__ import annotations

import numpy as np

from repro.grad import functional as F
from repro.grad.nn.module import Module
from repro.grad.tensor import Tensor


class CrossEntropyLoss(Module):
    """Softmax cross-entropy over integer class targets."""

    def __init__(self, reduction: str = "mean"):
        super().__init__()
        self.reduction = reduction

    def forward(self, logits: Tensor, targets: np.ndarray) -> Tensor:
        return F.cross_entropy(logits, targets, reduction=self.reduction)

    def __repr__(self) -> str:
        return f"CrossEntropyLoss(reduction={self.reduction!r})"

