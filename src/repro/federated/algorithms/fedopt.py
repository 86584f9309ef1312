"""FedOpt extension: server-side adaptive optimization (Reddi et al.).

Not one of the paper's four studied algorithms, but cited in its related
work (FedML "provides ... FedOpt"), and the one owner of a server-side
step size (``lr``): the round's aggregated delta is treated as a
pseudo-gradient and fed to a server optimizer.

Variants:
- ``"sgdm"``  — FedAvgM: server momentum over the pseudo-gradient;
- ``"adam"``  — FedAdam: Adam on the pseudo-gradient.

Client rounds are FedAvg's pure ``local_update`` (parallel-executor safe);
all of FedOpt's mutable state lives server-side in :meth:`aggregate`.
"""

from __future__ import annotations

import math

import numpy as np

from repro.grad.nn.module import Module
from repro.federated.aggregation import subtract_states, weighted_average_states
from repro.federated.algorithms.base import ClientResult
from repro.federated.algorithms.fedavg import FedAvg
from repro.federated.config import FederatedConfig


class FedOpt(FedAvg):
    """Server-side optimizer over the round's pseudo-gradient (FedAvgM/FedAdam)."""

    name = "fedopt"

    def __init__(
        self,
        variant: str = "sgdm",
        server_momentum: float = 0.9,
        beta2: float = 0.99,
        eps: float = 1e-3,
        lr: float | None = None,
    ):
        if variant not in ("sgdm", "adam"):
            raise ValueError(f"variant must be 'sgdm' or 'adam', got {variant!r}")
        if lr is not None and not 0 < lr < math.inf:
            raise ValueError(f"lr must be positive and finite, got {lr}")
        for knob, value in (("server_momentum", server_momentum), ("beta2", beta2)):
            if not 0 <= value < 1:
                raise ValueError(f"{knob} must be in [0, 1), got {value}")
        if not 0 < eps < math.inf:
            raise ValueError(f"eps must be positive and finite, got {eps}")
        self.variant = variant
        # Adam's effective step is ~lr per round regardless of gradient
        # scale, so the FedAvg-compatible step of 1 is far too
        # big; FedAdam needs its own, much smaller, default.
        self.lr = lr if lr is not None else (0.1 if variant == "adam" else 1.0)
        self.server_momentum = server_momentum
        self.beta2 = beta2
        self.eps = eps
        self._momentum_buf: dict[str, np.ndarray] | None = None
        self._second_moment: dict[str, np.ndarray] | None = None
        self._step = 0

    def prepare(self, model: Module, clients, config: FederatedConfig) -> None:
        super().prepare(model, clients, config)
        self._momentum_buf = None
        self._second_moment = None
        self._step = 0

    def aggregate(
        self,
        global_state: dict[str, np.ndarray],
        results: list[ClientResult],
        config: FederatedConfig,
    ) -> dict[str, np.ndarray]:
        averaged = weighted_average_states(
            [r.state for r in results],
            [r.num_samples for r in results],
            keys=self.all_keys,
        )
        # Pseudo-gradient: the negated average model movement this round.
        pseudo_grad = subtract_states(global_state, averaged, self.param_keys)

        if self._momentum_buf is None:
            self._momentum_buf = {k: np.zeros_like(v) for k, v in pseudo_grad.items()}
        if self.variant == "adam" and self._second_moment is None:
            self._second_moment = {k: np.zeros_like(v) for k, v in pseudo_grad.items()}

        self._step += 1
        new_state = {k: np.asarray(v).copy() for k, v in global_state.items()}
        for key, grad in pseudo_grad.items():
            buf = self._momentum_buf[key]
            if self.variant == "sgdm":
                buf[:] = self.server_momentum * buf + grad.reshape(buf.shape)
                step = self.lr * buf
            else:
                beta1 = self.server_momentum
                buf[:] = beta1 * buf + (1 - beta1) * grad.reshape(buf.shape)
                second = self._second_moment[key]
                second[:] = self.beta2 * second + (1 - self.beta2) * grad.reshape(second.shape) ** 2
                m_hat = buf / (1 - beta1**self._step)
                v_hat = second / (1 - self.beta2**self._step)
                step = self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
            ref = np.asarray(global_state[key])
            new_state[key] = (ref.astype(np.float64) - step).astype(ref.dtype)

        # Buffers follow the plain average.
        for key in self._buffer_keys:
            new_state[key] = averaged[key]
        return new_state

    def checkpoint_state(self) -> dict:
        def copied(buf):
            return None if buf is None else {k: v.copy() for k, v in buf.items()}

        return {
            "momentum": copied(self._momentum_buf),
            "second_moment": copied(self._second_moment),
            "step": self._step,
        }

    def restore_state(self, state: dict) -> None:
        def copied(buf):
            return None if buf is None else {k: np.asarray(v).copy() for k, v in buf.items()}

        self._momentum_buf = copied(state["momentum"])
        self._second_moment = copied(state["second_moment"])
        self._step = int(state["step"])

    def __repr__(self) -> str:
        return f"FedOpt(variant={self.variant!r}, lr={self.lr}, server_momentum={self.server_momentum})"
