"""Algorithm interface: how a round's local updates become a global model.

The server drives the loop.  A party's round — the paper's shared "Party
executes" block — is defined once, in :meth:`FedAlgorithm.local_update`::

    terms = begin(...)                           # load w^t, pick the gradient terms
    outcome = run_local_training(..., **terms)
    return finish(..., terms, outcome)           # build the ClientResult

and an algorithm states only what it adds to that template:

- :meth:`FedAlgorithm.broadcast_payload` — server-side extras shipped to
  every sampled party at the start of a round (SCAFFOLD's global control
  variate; empty for the FedAvg family);
- :meth:`FedAlgorithm.begin` — load the party's start state (honouring the
  BN policy) and return keyword arguments of
  :func:`~repro.federated.trainer.run_local_training`: none for FedAvg /
  FedNova / FedOpt, ``proximal_mu`` + ``anchor`` for FedProx,
  ``correction`` + ``correction_mode`` for SCAFFOLD.  It must draw nothing
  from ``client.rng``: a backend may run it for a whole group of parties
  before any of them trains;
- :meth:`FedAlgorithm.finish` — turn the training outcome into a
  :class:`ClientResult` (SCAFFOLD adds its control-variate refresh);
- :meth:`FedAlgorithm.aggregate` — fold the round's results into the next
  global state (server side; may mutate server-held algorithm state).

The stacked executor calls ``begin`` and ``finish`` around its own batched
loop, so each runs once per party on every backend; an algorithm that
overrides ``local_update`` wholesale still works but is never batched.

**Purity contract** (what makes client rounds safe to batch, retry and
reorder, see :mod:`repro.federated.executor`): the party-side hooks must
not mutate algorithm instance state or any client other than the one they
were given; their ``model`` argument is scratch workspace only; persistent
per-party state changes go into ``ClientResult.client_state`` rather than
directly into ``client.state``.  Reading ``client.state`` and the immutable
key caches set up by :meth:`prepare` is fine.

The server applies each result's ``client_state`` via :meth:`commit`, in
participant order, before aggregating.  :meth:`client_round` bundles
``local_update`` + ``commit`` for single-party use (tests, notebooks).

Algorithms may keep server-side state (SCAFFOLD's global control variate,
FedOpt's momentum buffers) as instance attributes, and per-party state in
``client.state``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.grad.nn.module import Module
from repro.federated.aggregation import (
    batch_norm_keys,
    buffer_keys,
    merge_states,
    parameter_keys,
)
from repro.federated.client import Client
from repro.federated.config import FederatedConfig
from repro.federated.trainer import LocalTrainingResult, run_local_training


@dataclass
class ClientResult:
    """What one party sends back to the server."""

    client_id: int
    state: dict[str, np.ndarray]
    num_steps: int
    num_samples: int
    mean_loss: float
    payload: dict = field(default_factory=dict)  # algorithm-specific extras
    #: persistent per-party state updates (SCAFFOLD's ``c_i``, retained BN
    #: entries); the server folds these into ``client.state`` via
    #: :meth:`FedAlgorithm.commit` so ``local_update`` stays pure.
    client_state: dict = field(default_factory=dict)
    #: measured uplink bytes for this party's upload (state + payload
    #: extras + metadata), set by the executor's
    #: :class:`~repro.comm.channel.CommChannel` pass; 0 when no channel
    #: processed the result.
    upload_nbytes: int = 0


class FedAlgorithm:
    """Base class wiring the shared bookkeeping (BN policy, key splits)."""

    name = "base"

    def prepare(self, model: Module, clients: list[Client], config: FederatedConfig) -> None:
        """Called once before round 0; caches key structure."""
        self._param_keys = parameter_keys(model)
        self._buffer_keys = buffer_keys(model)
        self._bn_keys = batch_norm_keys(model)
        self._num_parties = len(clients)
        self._param_numel = sum(p.size for p in model.parameters())
        self._buffer_numel = sum(np.asarray(b).size for b in model.buffers())

    def round_payload_floats(self) -> tuple[int, int]:
        """Per-client (downlink, uplink) float counts for one round.

        The FedAvg family ships the model state both ways.  SCAFFOLD
        overrides this: control variates double the parameter traffic
        (paper Section 3.3, "SCAFFOLD doubles the communication size per
        round").
        """
        state = self._param_numel + self._buffer_numel
        return state, state

    def uplink_metadata_floats(self) -> int:
        """Aggregation scalars a party ships beyond its array streams.

        The float32 accounting treats the base protocol (FedAvg's sample
        counts, losses) as free, matching the paper; algorithms whose
        aggregation consumes *extra* per-party metadata — FedNova's
        normalization step count ``tau_i`` — override this so the
        measured byte path (:mod:`repro.comm`) meters it.
        """
        return 0

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------
    def broadcast_payload(self) -> dict:
        """Server-side extras shipped to every party this round."""
        return {}

    def begin(
        self,
        model: Module,
        global_state: dict[str, np.ndarray],
        client: Client,
        config: FederatedConfig,
        payload: dict,
    ) -> dict:
        """Load the start state; return the ``run_local_training`` terms.

        The broadcast state is loaded honouring the BN policy: under
        ``bn_policy="local"`` (the FedBN-style remedy the paper's Section
        6.2 sketches), a party keeps its own batch-norm entries — learned
        affine parameters *and* running statistics — across rounds instead
        of receiving the server's averaged ones.  Keeping only the running
        statistics local would be inert: training-mode BN uses batch
        statistics, so the averaged buffers never influence local
        gradients, only evaluation.
        """
        state = global_state
        if config.bn_policy == "local" and self._bn_keys:
            kept = client.state.get("bn_local")
            if kept is not None:
                state = merge_states(global_state, kept, self._bn_keys)
        model.load_state_dict(state)
        return {}

    def local_update(
        self,
        model: Module,
        global_state: dict[str, np.ndarray],
        client: Client,
        config: FederatedConfig,
        payload: dict,
    ) -> ClientResult:
        """One party's local round — pure; see the module docstring."""
        terms = self.begin(model, global_state, client, config, payload)
        outcome = run_local_training(model, client, config, **terms)
        return self.finish(
            model, global_state, client, config, payload, terms, outcome
        )

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
        """What the party sends back; ``model`` holds ``outcome.state``."""
        return ClientResult(
            client_id=client.client_id,
            state=outcome.state,
            num_steps=outcome.num_steps,
            num_samples=outcome.num_samples,
            mean_loss=outcome.mean_loss,
            client_state=self.local_bn_state(outcome.state, config),
        )

    def commit(self, client: Client, result: ClientResult) -> None:
        """Fold a result's persistent per-party state into the client."""
        for key, value in result.client_state.items():
            client.state[key] = value

    def client_round(
        self,
        model: Module,
        global_state: dict[str, np.ndarray],
        client: Client,
        config: FederatedConfig,
    ) -> ClientResult:
        """Convenience: ``local_update`` + ``commit`` for one party."""
        result = self.local_update(
            model, global_state, client, config, self.broadcast_payload()
        )
        self.commit(client, result)
        return result

    def aggregate(
        self,
        global_state: dict[str, np.ndarray],
        results: list[ClientResult],
        config: FederatedConfig,
    ) -> dict[str, np.ndarray]:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def checkpoint_state(self) -> dict:
        """Server-side mutable algorithm state a run checkpoint must carry.

        The FedAvg family is stateless server-side; SCAFFOLD (global
        control variate) and FedOpt (optimizer moments) override both
        hooks.  Returned values must be deep copies — checkpoints may
        outlive the run that produced them.
        """
        return {}

    def restore_state(self, state: dict) -> None:
        """Inverse of :meth:`checkpoint_state`; called after :meth:`prepare`."""

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def local_bn_state(self, state: dict, config: FederatedConfig) -> dict:
        """Per-party state entries keeping the post-training BN snapshot.

        Returned (not written) so ``local_update`` stays pure; the server
        commits it into ``client.state`` afterwards.
        """
        if config.bn_policy == "local" and self._bn_keys:
            return {
                "bn_local": {
                    key: np.asarray(state[key]).copy() for key in self._bn_keys
                }
            }
        return {}

    @property
    def param_keys(self) -> list[str]:
        return self._param_keys

    @property
    def all_keys(self) -> list[str]:
        return self._param_keys + self._buffer_keys

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"
