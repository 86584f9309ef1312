"""FedAvg (Algorithm 1 without the colored lines).

Each sampled party runs E local epochs of SGD; the server replaces the
global model with the data-size-weighted average of the returned local
models.  With ``server_lr = 1`` the delta form of Algorithm 1 line 9,

    w^{t+1} = w^t - eta * sum_i (|D^i| / n) * (w^t - w_i^t),

is exactly weighted model averaging.
"""

from __future__ import annotations

import numpy as np

from repro.federated.aggregation import subtract_states, apply_update, weighted_average_states
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
        averaged = weighted_average_states(
            [r.state for r in results], weights, keys=self.all_keys
        )
        if config.server_lr == 1.0:
            return averaged
        # General form: step from the old global model towards the average.
        delta = subtract_states(global_state, averaged, self.param_keys)
        stepped = apply_update(global_state, delta, config.server_lr)
        # Buffers are not part of the optimization geometry; take the average.
        for key in self._buffer_keys:
            stepped[key] = averaged[key]
        return stepped
