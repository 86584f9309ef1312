"""FedNova (Algorithm 1 with the orange line).

Local training is plain FedAvg (the inherited pure
:meth:`~repro.federated.algorithms.fedavg.FedAvg.local_update`, so FedNova
runs under every executor backend unchanged), but the server normalizes every party's
cumulative update by its local step count before averaging, then rescales
by the weighted-average step count (Algorithm 1 line 10):

    w^{t+1} = w^t - eta * (sum_i |D^i| tau_i / n) * sum_i (|D^i| dw_i) / (n tau_i)

with ``dw_i = w^t - w_i^t``.  This removes the bias towards parties that
happen to take more local steps (bigger datasets at a fixed epoch count,
or faster hardware at a fixed time budget).

Two normalizations are available:

- ``momentum_correction=False`` (default): normalize by the raw
  mini-batch count ``tau_i``, matching the paper's Algorithm 1 and the
  NIID-Bench reference implementation;
- ``momentum_correction=True``: normalize by the *effective* step count
  under heavy-ball momentum from the original FedNova derivation,
  ``||a_i||_1 = (tau_i - rho (1 - rho^tau_i) / (1 - rho)) / (1 - rho)``,
  which accounts for momentum inflating every local update by up to
  ``1/(1-rho)``.
"""

from __future__ import annotations

import numpy as np

from repro.federated.aggregation import (
    apply_update,
    subtract_states,
    weighted_average_states,
)
from repro.federated.algorithms.base import ClientResult
from repro.federated.algorithms.fedavg import FedAvg
from repro.federated.config import FederatedConfig
from repro.federated.trainer import MOMENTUM


def effective_steps(tau: int, momentum: float) -> float:
    """||a_i||_1: the effective step count of tau momentum-SGD steps."""
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    if not 0.0 <= momentum < 1.0:
        raise ValueError(f"momentum must be in [0, 1), got {momentum}")
    if momentum == 0.0:
        return float(tau)
    rho = momentum
    return (tau - rho * (1.0 - rho**tau) / (1.0 - rho)) / (1.0 - rho)


class FedNova(FedAvg):
    """Normalized averaging of heterogeneous local updates (Algorithm 1, line 10)."""

    name = "fednova"

    def __init__(self, momentum_correction: bool = False):
        self.momentum_correction = momentum_correction

    def _normalizer(self, num_steps: int, config: FederatedConfig) -> float:
        if self.momentum_correction:
            return effective_steps(num_steps, MOMENTUM)
        return float(num_steps)

    def uplink_metadata_floats(self) -> int:
        """FedNova's normalization needs each party's step count ``tau_i``.

        The old closed-form accounting charged FedNova exactly FedAvg's
        model traffic; the normalization metadata its aggregation rule
        consumes was never counted.  One float per party per round fixes
        that in both the closed-form and measured paths.
        """
        return 1

    def round_payload_floats(self) -> tuple[int, int]:
        """Model state both ways plus the uplink step-count metadata."""
        down, up = super().round_payload_floats()
        return down, up + self.uplink_metadata_floats()

    def aggregate(
        self,
        global_state: dict[str, np.ndarray],
        results: list[ClientResult],
        config: FederatedConfig,
    ) -> dict[str, np.ndarray]:
        for result in results:
            if result.num_steps <= 0:
                raise ValueError(
                    f"client {result.client_id} reported no local steps"
                )
        total = sum(r.num_samples for r in results)
        relative = [r.num_samples / total for r in results]
        normalizers = [self._normalizer(r.num_steps, config) for r in results]

        # tau_eff = sum_i p_i * tau_i  (the paper's  sum |D^i| tau_i / n),
        # with tau replaced by ||a_i||_1 under momentum correction.
        tau_eff = float(sum(p * t for p, t in zip(relative, normalizers)))

        # Normalized direction: sum_i p_i * (dw_i / tau_i).
        direction: dict[str, np.ndarray] = {}
        for p, result, normalizer in zip(relative, results, normalizers):
            delta = subtract_states(global_state, result.state, self.param_keys)
            for key, value in delta.items():
                contribution = (p / normalizer) * value
                if key in direction:
                    direction[key] += contribution
                else:
                    direction[key] = contribution

        scaled = {key: tau_eff * value for key, value in direction.items()}
        new_state = apply_update(global_state, scaled, 1.0)

        # Buffers (BN statistics) are not gradient-like: average them.
        if self._buffer_keys:
            averaged_buffers = weighted_average_states(
                [r.state for r in results],
                [r.num_samples for r in results],
                keys=self._buffer_keys,
            )
            for key in self._buffer_keys:
                new_state[key] = averaged_buffers[key]
        return new_state
