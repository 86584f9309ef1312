"""SCAFFOLD (Algorithm 2).

Control variates estimate the update direction of the server (``c``) and of
each party (``c_i``); their difference approximates the client drift, and
every local SGD step is corrected by ``- c_i + c`` (line 20).

After local training, the party refreshes its control variate (line 23):

- option (i): ``c_i* = ∇L_i(w^t)`` — the full-batch local gradient at the
  *global* model (more stable, one extra pass over the local data);
- option (ii): ``c_i* = c_i - c + (w^t - w_i^t) / (tau_i * eta)`` — reuse
  the already-computed update (cheaper; the NIID-Bench default).

The server then averages the model deltas exactly like FedAvg (line 9) and
moves its control variate by the average of the parties' control-variate
deltas scaled by 1/N — note N is the *total* number of parties, which is
why partial participation starves the estimate (Finding 8).
"""

from __future__ import annotations

import numpy as np

from repro.grad.nn.module import Module
from repro.federated.aggregation import weighted_average_states
from repro.federated.algorithms.base import ClientResult, FedAlgorithm
from repro.federated.client import Client
from repro.federated.config import FederatedConfig
from repro.federated.trainer import LocalTrainingResult, full_batch_gradient


class Scaffold(FedAlgorithm):
    """Stochastic controlled averaging with control variates (Algorithm 2)."""

    name = "scaffold"

    def __init__(self, option: int = 2, correction_mode: str = "step"):
        if option not in (1, 2):
            raise ValueError(f"option must be 1 or 2, got {option}")
        if correction_mode not in ("step", "grad"):
            raise ValueError(
                f"correction_mode must be 'step' or 'grad', got {correction_mode!r}"
            )
        self.option = option
        #: "step" applies the drift correction directly to the parameters
        #: after the momentum step (NIID-Bench reference behaviour);
        #: "grad" adds it to the raw gradient (Algorithm 2 literally),
        #: which momentum amplifies by ~1/(1-m) — unstable at small tau.
        self.correction_mode = correction_mode
        self._server_c: list[np.ndarray] | None = None

    def prepare(self, model: Module, clients, config: FederatedConfig) -> None:
        super().prepare(model, clients, config)
        self._server_c = [
            np.zeros(p.data.shape, dtype=np.float64) for p in model.parameters()
        ]

    @property
    def server_control(self) -> list[np.ndarray]:
        if self._server_c is None:
            raise RuntimeError("Scaffold.prepare() was not called")
        return self._server_c

    def broadcast_payload(self) -> dict:
        """Ship the global control variate ``c`` (Algorithm 2, line 17)."""
        return {"server_control": self.server_control}

    def _controls(self, client: Client, payload: dict):
        """``(c, c_i)``; ``c_i`` is zero until the party's first refresh."""
        c = payload["server_control"]
        c_i = client.state.get("scaffold_c")
        if c_i is None:
            c_i = [np.zeros_like(cg) for cg in c]
        return c, c_i

    def begin(
        self,
        model: Module,
        global_state: dict[str, np.ndarray],
        client: Client,
        config: FederatedConfig,
        payload: dict,
    ) -> dict:
        super().begin(model, global_state, client, config, payload)
        c, c_i = self._controls(client, payload)
        return {
            # Line 20: step on grad - c_i + c, i.e. add (c - c_i) to every grad.
            "correction": [(cg - cl).astype(np.float32) for cg, cl in zip(c, c_i)],
            "correction_mode": self.correction_mode,
            # The round-start weights option (ii) refreshes c_i from; with
            # proximal_mu left at 0 no optimizer reads them.
            "anchor": [param.data.copy() for param in model.parameters()],
        }

    def finish(
        self,
        model: Module,
        global_state: dict[str, np.ndarray],
        client: Client,
        config: FederatedConfig,
        payload: dict,
        terms: dict,
        outcome: LocalTrainingResult,
    ) -> ClientResult:
        result = super().finish(
            model, global_state, client, config, payload, terms, outcome
        )
        c, c_i = self._controls(client, payload)
        # Line 23: refresh the local control variate.  The refreshed value
        # is *returned* (client_state), not written, so the round stays pure.
        if self.option == 1:
            # Gradient at the *global* model: reload it, differentiate, then
            # restore the trained weights (the gradient pass also perturbs
            # BN running stats, so we snapshot/restore the full state).
            model.load_state_dict(global_state)
            c_star = [g.astype(np.float64) for g in full_batch_gradient(model, client, config)]
            model.load_state_dict(outcome.state)
        else:
            local_params = [
                np.asarray(outcome.state[key], dtype=np.float64)
                for key in self.param_keys
            ]
            scale = 1.0 / (outcome.num_steps * config.lr)
            c_star = [
                ci - cg + scale * (gw.astype(np.float64) - lw)
                for ci, cg, gw, lw in zip(c_i, c, terms["anchor"], local_params)
            ]
        result.payload = {"delta_c": [new - old for new, old in zip(c_star, c_i)]}
        result.client_state = {"scaffold_c": c_star, **result.client_state}
        return result

    def round_payload_floats(self) -> tuple[int, int]:
        """Model state both ways plus control variates both ways."""
        state = self._param_numel + self._buffer_numel
        return state + self._param_numel, state + self._param_numel

    def aggregate(
        self,
        global_state: dict[str, np.ndarray],
        results: list[ClientResult],
        config: FederatedConfig,
    ) -> dict[str, np.ndarray]:
        # Line 9: weighted model averaging, same as FedAvg.
        averaged = weighted_average_states(
            [r.state for r in results],
            [r.num_samples for r in results],
            keys=self.all_keys,
        )
        new_state = {
            key: np.asarray(value).copy() for key, value in global_state.items()
        }
        for key in self.all_keys:
            new_state[key] = averaged[key]

        # Line 10: c <- c + (1/N) * sum_i delta_c_i  (N = total parties).
        for result in results:
            for slot, delta in zip(self._server_c, result.payload["delta_c"]):
                slot += delta / self._num_parties
        return new_state

    def checkpoint_state(self) -> dict:
        return {"server_c": [c.copy() for c in self.server_control]}

    def restore_state(self, state: dict) -> None:
        self._server_c = [np.asarray(c).copy() for c in state["server_c"]]

    def __repr__(self) -> str:
        return f"Scaffold(option={self.option}, correction_mode={self.correction_mode!r})"
