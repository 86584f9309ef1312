"""The federation orchestrator: the "Server executes" loop of Algorithm 1.

Round structure:

1. sample a set of parties ``S_t``;
2. encode the broadcast (global model + algorithm extras) through the
   run's :class:`~repro.comm.CommChannel` — the codec's decoded output is
   what parties train from, and its measured payload bytes are what the
   round record charges for the downlink;
3. run each party's local training through the configured
   :class:`~repro.federated.executor.ClientExecutor` (one party after
   another on the workspace model, or stacked groups in one compiled
   program — bitwise-identical either way), which also runs every
   upload through the channel's uplink codec and meters it;
4. commit each result's persistent per-party state, in participant order;
5. aggregate the results into the next global model (the algorithm's
   :meth:`aggregate`);
6. periodically evaluate top-1 accuracy on the held-out test set.

Fault-tolerant rounds
---------------------
When the config enables a :class:`~repro.federated.faults.FaultModel`,
the sampled set is thinned before dispatch (dropouts; stragglers whose
slowdown exceeds the round ``deadline``) and again after execution
(injected crashes).  The round aggregates whatever subset survives —
with over-sampling keeping *expected completed* participation at the
configured fraction — and the :class:`RoundRecord` carries the sampled
set, the dropped parties with reasons, per-party slowdowns and the
executor's recovery path.  A round every party fails leaves the global
model unchanged (there is nothing to aggregate) and records a NaN
training loss.

Long runs checkpoint with :meth:`FederatedServer.save_checkpoint` and
continue with :meth:`FederatedServer.resume`; a resumed run reproduces
the uninterrupted run's history bitwise (see DESIGN.md for the format).

The server owns a single workspace model instance; party training
reloads weights into it instead of rebuilding, so CPU runs stay cheap.
"""

from __future__ import annotations

import copy
import os
import pickle
from typing import Callable

import numpy as np

from repro.comm import CommChannel
from repro.grad.nn.module import Module
from repro.federated.algorithms.base import FedAlgorithm
from repro.federated.client import Client
from repro.federated.config import FederatedConfig
from repro.federated.evaluation import evaluate as evaluate_model
from repro.federated.executor import ClientExecutor, make_executor
from repro.federated.faults import NO_FAULT, FaultModel
from repro.federated.history import History, RoundRecord
from repro.federated.sampling import StratifiedSampler, sample_parties

#: version tag written into checkpoints; bumped on layout changes
CHECKPOINT_FORMAT = 1


class FederatedServer:
    """Run a federated algorithm over a fixed set of clients.

    Parameters
    ----------
    model:
        Workspace model; its initial weights are round 0's global model.
    algorithm:
        A :class:`FedAlgorithm` (FedAvg, FedProx, Scaffold, FedNova, ...).
    clients:
        The parties (see :func:`repro.federated.client.make_clients`).
    config:
        Run hyper-parameters.
    test_dataset:
        Held-out data for the paper's top-1 accuracy metric (optional —
        without it the history records losses only).
    round_callback:
        Optional hook ``(round_index, server) -> None`` called after each
        round; useful for custom logging or early stopping in examples.
    executor:
        Client-execution backend.  Defaults to whatever ``config`` asks
        for (``config.executor``); pass an instance to inject a custom
        backend.  :meth:`close` (or using the server as a context
        manager) releases whatever resources it holds.
    channel:
        Communication channel applying the run's update-compression
        codec and measuring payload bytes (see :mod:`repro.comm`).
        Defaults to whatever ``config`` asks for (``config.codec`` and
        friends); pass an instance to inject a custom codec.
    """

    def __init__(
        self,
        model: Module,
        algorithm: FedAlgorithm,
        clients: list[Client],
        config: FederatedConfig,
        test_dataset=None,
        round_callback: Callable[[int, "FederatedServer"], None] | None = None,
        executor: ClientExecutor | None = None,
        channel: CommChannel | None = None,
    ):
        if not clients:
            raise ValueError("need at least one client")
        self.model = model
        self.algorithm = algorithm
        self.clients = clients
        self.config = config
        self.test_dataset = test_dataset
        self.round_callback = round_callback
        self.global_state = model.state_dict()
        self.history = History()
        self._sampler_rng = np.random.default_rng(config.seed)
        self.fault_model = FaultModel.from_config(config)
        self._stratified: StratifiedSampler | None = None
        if config.sampler == "stratified":
            # Empty parties (legitimate under low-beta Dirichlet skew)
            # contribute zero counts; labels.max() on an empty array
            # would raise, so the class range comes from non-empty ones.
            label_maxima = [
                int(client.dataset.labels.max())
                for client in clients
                if len(client.dataset) > 0
            ]
            if not label_maxima:
                raise ValueError(
                    "stratified sampling needs at least one non-empty client"
                )
            num_classes = 1 + max(label_maxima)
            counts = np.stack(
                [client.dataset.class_counts(num_classes) for client in clients]
            )
            self._stratified = StratifiedSampler(counts)
        algorithm.prepare(model, clients, config)
        self.channel = channel if channel is not None else CommChannel.from_config(config)
        self._comm_keys = sorted(self.global_state)
        self.executor = executor if executor is not None else make_executor(config)
        self.executor.setup(model, algorithm, clients, config, channel=self.channel)

    @property
    def num_parties(self) -> int:
        return len(self.clients)

    def _sample_round(self) -> list[int]:
        """Draw this round's parties, over-sampling under active faults.

        With a fault model expected to lose a fraction ``d`` of sampled
        parties, sampling ``m / (1 - d)`` instead of ``m`` keeps the
        expected *completed* count at the configured participation.
        """
        fraction = self.config.sample_fraction
        if (
            self.fault_model is not None
            and self.config.over_sample
            and fraction < 1.0
        ):
            drop = self.fault_model.expected_drop_rate(self.config.deadline)
            if drop > 0.0:
                fraction = min(1.0, fraction / (1.0 - drop))
        if self._stratified is not None:
            sampled = self._stratified.sample(fraction, self._sampler_rng)
        else:
            sampled = sample_parties(
                self.num_parties, fraction, self._sampler_rng
            )
        return [int(p) for p in sampled]

    def run_round(self, round_index: int) -> RoundRecord:
        """Execute one communication round and return its record."""
        sampled = self._sample_round()
        # Consult the fault model: dropouts and deadline-missing
        # stragglers never dispatch; crashes and surviving stragglers do.
        deadline = self.config.deadline
        faults = (
            self.fault_model.round_faults(round_index, sampled)
            if self.fault_model is not None
            else {}
        )
        participants: list[int] = []
        dispatch_faults = {}
        dropped: list[int] = []
        drop_reasons: list[str] = []
        for party in sampled:
            fault = faults.get(party, NO_FAULT)
            if fault.dropped:
                dropped.append(party)
                drop_reasons.append("dropout")
                continue
            if deadline is not None and fault.slowdown > deadline:
                dropped.append(party)
                drop_reasons.append("deadline")
                continue
            participants.append(party)
            if not fault.ok:
                dispatch_faults[party] = fault
        # Downlink: encode the broadcast through the comm channel; what
        # clients train from is what they would decode off the wire, and
        # the per-client byte cost is measured from the encoded payloads.
        extras = self.algorithm.broadcast_payload()
        broadcast_state, extras, down_per_client = self.channel.broadcast(
            self.global_state, extras, self._comm_keys
        )
        execution = self.executor.execute_round(
            broadcast_state, participants, extras,
            faults=dispatch_faults or None,
        )
        for party in participants:
            if party in execution.failed:
                dropped.append(party)
                drop_reasons.append(execution.failed[party])
        completed = execution.completed
        results = execution.results
        # Commit persistent per-party state (SCAFFOLD c_i, local BN) in
        # participant order, then aggregate over the same ordering — the
        # two invariants that keep every backend bitwise-equal to serial.
        for party, result in zip(completed, results):
            self.algorithm.commit(self.clients[party], result)
        if results:
            self.global_state = self.algorithm.aggregate(
                self.global_state, results, self.config
            )

        accuracy = None
        if self.test_dataset is not None and (
            (round_index + 1) % self.config.eval_every == 0
        ):
            accuracy = self.evaluate()
        # The server pushed the broadcast to every sampled party, so the
        # downlink is charged for all of them; only completers upload.
        bytes_down = down_per_client * len(sampled)
        client_bytes_up = [r.upload_nbytes for r in results]
        bytes_up = sum(client_bytes_up)
        record = RoundRecord(
            round_index=round_index,
            test_accuracy=accuracy,
            train_loss=(
                float(np.mean([r.mean_loss for r in results]))
                if results
                else float("nan")
            ),
            participants=completed,
            bytes_communicated=bytes_down + bytes_up,
            client_steps=[r.num_steps for r in results],
            bytes_down=bytes_down,
            bytes_up=bytes_up,
            client_bytes_up=client_bytes_up,
            sampled=sampled,
            dropped=dropped,
            drop_reasons=drop_reasons,
            slowdowns=(
                [faults.get(p, NO_FAULT).slowdown for p in completed]
                if faults
                else []
            ),
            fallback=execution.fallback,
        )
        self.history.append(record)
        if self.round_callback is not None:
            self.round_callback(round_index, self)
        return record

    def fit(self, num_rounds: int | None = None) -> History:
        """Run ``num_rounds`` rounds (defaults to the config's).

        With ``config.checkpoint_every > 0`` a full run checkpoint is
        written to ``config.checkpoint_path`` every k completed rounds.
        """
        rounds = num_rounds if num_rounds is not None else self.config.num_rounds
        start = len(self.history)
        every = self.config.checkpoint_every
        for round_index in range(start, start + rounds):
            self.run_round(round_index)
            if every > 0 and len(self.history) % every == 0:
                self.save_checkpoint(self.config.checkpoint_path)
        return self.history

    # ------------------------------------------------------------------
    # Checkpoint / resume
    # ------------------------------------------------------------------
    def save_checkpoint(self, path: str) -> None:
        """Serialize everything a bitwise-identical resume needs.

        The checkpoint carries the global model state, every client's
        generator state and persistent per-party state (SCAFFOLD ``c_i``,
        retained BN entries, codec error-feedback residuals), server-side
        algorithm state (SCAFFOLD ``c``, FedOpt moments), the sampler
        generator, the comm channel's downlink state, and the full round
        history.  Written atomically (temp file + rename) so an
        interrupted save never leaves a truncated checkpoint behind.
        """
        payload = {
            "format": CHECKPOINT_FORMAT,
            "algorithm": self.algorithm.name,
            "num_parties": self.num_parties,
            "rounds_completed": len(self.history),
            "global_state": {
                key: np.asarray(value).copy()
                for key, value in self.global_state.items()
            },
            "clients": [
                {
                    "rng": client.rng.bit_generator.state,
                    "state": copy.deepcopy(client.state),
                }
                for client in self.clients
            ],
            "algorithm_state": self.algorithm.checkpoint_state(),
            "sampler_rng": self._sampler_rng.bit_generator.state,
            "channel": self.channel.checkpoint_state(),
            "history": self.history.to_dict(),
        }
        tmp = f"{path}.tmp"
        with open(tmp, "wb") as handle:
            pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, path)

    def resume(self, path: str) -> "FederatedServer":
        """Load a checkpoint into this (freshly constructed) server.

        The server must have been built with the same model architecture,
        algorithm, clients and config as the run that wrote the
        checkpoint; ``fit()`` then continues from the next round and
        reproduces the uninterrupted run's records bitwise.
        """
        with open(path, "rb") as handle:
            payload = pickle.load(handle)
        if payload.get("format") != CHECKPOINT_FORMAT:
            raise ValueError(
                f"unsupported checkpoint format {payload.get('format')!r} "
                f"(this build reads format {CHECKPOINT_FORMAT})"
            )
        if payload["algorithm"] != self.algorithm.name:
            raise ValueError(
                f"checkpoint was written by algorithm {payload['algorithm']!r}, "
                f"this server runs {self.algorithm.name!r}"
            )
        if payload["num_parties"] != self.num_parties:
            raise ValueError(
                f"checkpoint federation has {payload['num_parties']} parties, "
                f"this server has {self.num_parties}"
            )
        checkpoint_keys = sorted(payload["global_state"])
        if checkpoint_keys != self._comm_keys:
            raise ValueError(
                "checkpoint model state keys do not match this server's model"
            )
        self.global_state = payload["global_state"]
        for client, snapshot in zip(self.clients, payload["clients"]):
            client.rng.bit_generator.state = snapshot["rng"]
            client.state = snapshot["state"]
        algorithm_state = payload["algorithm_state"]
        if algorithm_state:
            self.algorithm.restore_state(algorithm_state)
        self._sampler_rng.bit_generator.state = payload["sampler_rng"]
        self.channel.restore_state(payload["channel"])
        self.history = History.from_dict(payload["history"])
        return self

    def evaluate(self, dataset=None) -> float:
        """Top-1 accuracy of the current global model."""
        target = dataset if dataset is not None else self.test_dataset
        if target is None:
            raise ValueError("no test dataset provided")
        self.model.load_state_dict(self.global_state)
        result = evaluate_model(
            self.model,
            target,
            self.config.eval_batch_size,
            compiled=self.config.compile,
        )
        return result.accuracy

    def close(self) -> None:
        """Release the executor's resources; idempotent."""
        self.executor.close()

    def __enter__(self) -> "FederatedServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
