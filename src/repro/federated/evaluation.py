"""Global-model evaluation: the paper's top-1 test accuracy metric.

:func:`evaluate` is the fused fast path: one forward pass per batch
yields *both* accuracy and mean cross-entropy (the server previously paid
two full passes per round for them), optionally replayed through a
captured inference program (see :mod:`repro.grad.capture`).  It is the
one way to score a model on a dataset: read ``.accuracy`` or ``.loss``
off its :class:`EvalResult`.  :func:`evaluate_per_party` scores one
model on every party's data instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.loader import DataLoader
from repro.grad.capture import inference_engine
from repro.grad.nn.module import Module
from repro.grad.tensor import Tensor, no_grad

#: batch size of evaluation passes (and SCAFFOLD's full-batch gradient)
EVAL_BATCH_SIZE = 256


@dataclass
class EvalResult:
    """Accuracy and mean loss from a single pass over a dataset."""

    accuracy: float
    loss: float
    num_samples: int


def _cross_entropy_sum(logits: np.ndarray, targets: np.ndarray) -> float:
    # Mirrors F.cross_entropy(..., reduction="sum") on the same logits
    # bit for bit, so the fused pass's loss is the autograd loss exactly.
    rows = np.arange(logits.shape[0])
    shifted = logits - logits.max(axis=1, keepdims=True)
    sumexp = np.exp(shifted).sum(axis=1, keepdims=True)
    losses = np.log(sumexp[:, 0]) - shifted[rows, targets]
    return float(losses.sum())


def _evaluate_inner(
    model: Module, dataset, batch_size: int, compiled: bool
) -> EvalResult:
    """Single-pass accuracy+loss; assumes eval mode is already set."""
    if len(dataset) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    engine = inference_engine(model) if compiled else None
    correct = 0
    total = 0.0
    with no_grad():
        for features, labels in DataLoader(dataset, batch_size):
            logits = engine.forward(features) if engine is not None else None
            if logits is None:
                logits = model(Tensor(features)).data
            correct += int((logits.argmax(axis=1) == labels).sum())
            total += _cross_entropy_sum(logits, labels)
    n = len(dataset)
    return EvalResult(accuracy=correct / n, loss=total / n, num_samples=n)


def evaluate(
    model: Module,
    dataset,
    batch_size: int = EVAL_BATCH_SIZE,
    compiled: bool = False,
) -> EvalResult:
    """Accuracy and mean cross-entropy from one forward pass per batch.

    With ``compiled=True`` the forward is replayed through the model's
    cached inference program (captured on first use and reused across
    rounds); odd-shaped final batches transparently run eagerly.
    """
    was_training = model.training
    model.eval()
    try:
        return _evaluate_inner(model, dataset, batch_size, compiled)
    finally:
        if was_training:
            model.train()


def evaluate_per_party(
    model: Module, clients, batch_size: int = EVAL_BATCH_SIZE, compiled: bool = False
) -> "np.ndarray":
    """Accuracy of one (global) model on every party's local data.

    The spread of these values is the silo-level fairness view: under
    label skew a global model can be accurate overall yet fail the
    specialized parties — useful context for the paper's Section 6
    discussion even though Table 3 reports only the global test accuracy.

    The eval-mode toggle is hoisted out of the per-party loop, and with
    ``compiled=True`` all parties share the model's one cached inference
    program (full-size batches replay; ragged tails run eagerly).
    """
    was_training = model.training
    model.eval()
    try:
        accuracies = [
            _evaluate_inner(model, client.dataset, batch_size, compiled).accuracy
            for client in clients
        ]
    finally:
        if was_training:
            model.train()
    return np.array(accuracies)

