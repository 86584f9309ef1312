"""FedProx (Algorithm 1 with the red line).

Identical to FedAvg except the local objective gains a proximal term

    L(w) = sum_b l(w; b) + (mu / 2) * ||w - w^t||^2,

implemented as an extra ``mu * (w - w^t)`` on every local gradient (the
optimizer's anchor mechanism).  ``mu = 0`` reduces exactly to FedAvg — a
property the test suite pins down.
"""

from __future__ import annotations

import math

import numpy as np

from repro.grad.nn.module import Module
from repro.federated.algorithms.fedavg import FedAvg
from repro.federated.client import Client
from repro.federated.config import FederatedConfig


#: the proximal weight used when none is given (also the CLI's ``--mu``)
DEFAULT_MU = 0.01


class FedProx(FedAvg):
    """FedAvg plus a proximal term of weight ``mu`` in the local objective."""

    name = "fedprox"

    def __init__(self, mu: float = DEFAULT_MU):
        if not 0 <= mu < math.inf:
            raise ValueError(f"mu must be non-negative and finite, got {mu}")
        self.mu = mu

    def begin(
        self,
        model: Module,
        global_state: dict[str, np.ndarray],
        client: Client,
        config: FederatedConfig,
        payload: dict,
    ) -> dict:
        super().begin(model, global_state, client, config, payload)
        # Anchor at the just-loaded global weights, in parameter order.
        anchor = [param.data.copy() for param in model.parameters()]
        return {"proximal_mu": self.mu, "anchor": anchor}

    def __repr__(self) -> str:
        return f"FedProx(mu={self.mu})"
