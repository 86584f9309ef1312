"""FedAvg (Algorithm 1 without the colored lines).

Each sampled party runs E local epochs of SGD; the server replaces the
global model with the data-size-weighted average of the returned local
models.  That is the delta form of Algorithm 1 line 9,

    w^{t+1} = w^t - eta * sum_i (|D^i| / n) * (w^t - w_i^t),

at ``eta = 1``.  A server-side step size is
:class:`~repro.federated.algorithms.fedopt.FedOpt`'s job.
"""

from __future__ import annotations

import numpy as np

from repro.federated.aggregation import weighted_average_states
from repro.federated.algorithms.base import ClientResult, FedAlgorithm
from repro.federated.config import FederatedConfig


class FedAvg(FedAlgorithm):
    """Weighted model averaging (McMahan et al.); see module docstring."""

    name = "fedavg"

    def aggregate(
        self,
        global_state: dict[str, np.ndarray],
        results: list[ClientResult],
        config: FederatedConfig,
    ) -> dict[str, np.ndarray]:
        weights = [r.num_samples for r in results]
        return weighted_average_states(
            [r.state for r in results], weights, keys=self.all_keys
        )
