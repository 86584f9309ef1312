"""Centralized training reference.

The paper's accuracy tables are implicitly anchored to what centralized
training achieves on each dataset (its IID rows approach it).  This helper
trains a model on the pooled data with the same optimizer settings the
federation uses, giving experiments an upper-reference point and the
calibration numbers in EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data import load_dataset
from repro.data.loader import DataLoader
from repro.federated.evaluation import evaluate
from repro.grad import Tensor, functional as F
from repro.grad.nn.module import Module
from repro.grad.optim import SGD
from repro.models import build_model


@dataclass
class CentralizedResult:
    """Per-epoch record of a centralized run."""

    accuracies: list[float] = field(default_factory=list)
    losses: list[float] = field(default_factory=list)

    @property
    def final_accuracy(self) -> float:
        if not self.accuracies:
            raise ValueError("no epochs recorded")
        return self.accuracies[-1]

    @property
    def best_accuracy(self) -> float:
        if not self.accuracies:
            raise ValueError("no epochs recorded")
        return max(self.accuracies)


def train_centralized(
    model: Module,
    train_dataset,
    test_dataset,
    epochs: int,
    lr: float,
    batch_size: int = 64,
    momentum: float = 0.9,
    seed: int = 0,
) -> CentralizedResult:
    """Train ``model`` on pooled data; evaluate after every epoch."""
    if epochs <= 0:
        raise ValueError(f"epochs must be positive, got {epochs}")
    rng = np.random.default_rng(seed)
    optimizer = SGD(model.parameters(), lr=lr, momentum=momentum)
    loader = DataLoader(train_dataset, batch_size, shuffle=True, rng=rng)
    result = CentralizedResult()
    for _ in range(epochs):
        model.train()
        losses = []
        for features, labels in loader:
            optimizer.zero_grad()
            loss = F.cross_entropy(model(Tensor(features)), labels)
            loss.backward()
            optimizer.step()
            losses.append(loss.item())
        result.losses.append(float(np.mean(losses)))
        result.accuracies.append(evaluate(model, test_dataset).accuracy)
    return result


def centralized_reference(
    dataset: str,
    epochs: int = 10,
    model: str = "default",
    lr: float | None = None,
    seed: int = 0,
    **dataset_kwargs,
) -> CentralizedResult:
    """One-call centralized baseline for a named dataset."""
    from repro.experiments.runner import paper_lr_for

    train, test, info = load_dataset(dataset, seed=seed, **dataset_kwargs)
    net = build_model(model, info, seed=seed)
    return train_centralized(
        net,
        train,
        test,
        epochs=epochs,
        lr=lr if lr is not None else paper_lr_for(dataset),
        seed=seed,
    )
