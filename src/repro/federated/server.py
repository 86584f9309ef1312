"""The federation orchestrator: the "Server executes" loop of Algorithm 1.

:class:`Federation` states one round, once, as two halves:

- the **client half** (:meth:`Federation._dispatch`): thin the sampled
  set by the fault model (dropouts; stragglers whose slowdown exceeds the
  round ``deadline``), encode the broadcast (global model + algorithm
  extras) through the run's :class:`~repro.comm.CommChannel` — the
  codec's decoded output is what parties train from, its measured payload
  bytes are what the downlink is charged — run the survivors through the
  configured :class:`~repro.federated.executor.ClientExecutor`, and
  commit each result's persistent per-party state in participant order;
- the **server half** (:meth:`Federation._server_step`): aggregate the
  results that arrived into the next global model (the algorithm's
  :meth:`aggregate`), evaluate on the configured cadence, and append the
  step's :class:`RoundRecord`.

What differs between engines is only the *arrival policy* between the two
halves.  :class:`FederatedServer` is the paper's synchronous server: one
dispatch, every survivor arrives, one server step.
:class:`~repro.federated.async_engine.AsyncFederation` puts a virtual
clock and a buffer in between.

A round every party fails leaves the global model unchanged (there is
nothing to aggregate) and records a NaN training loss.  Long runs
checkpoint with :meth:`FederatedServer.save_checkpoint` and continue with
:meth:`FederatedServer.resume`; a resumed run reproduces the
uninterrupted run's history bitwise (see DESIGN.md for the format).

The federation owns a single workspace model instance; party training
reloads weights into it instead of rebuilding, so CPU runs stay cheap.
"""

from __future__ import annotations

import copy
import os
import pickle
from dataclasses import dataclass, field
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
from repro.federated.sampling import StratifiedSampler, sample_clients

#: version tag written into checkpoints; bumped on layout changes
CHECKPOINT_FORMAT = 1
#: under an active fault model with partial participation, sample extra
#: parties so the expected *completed* count matches the configured share
OVER_SAMPLE = True


@dataclass
class _Epoch:
    """What the next :class:`RoundRecord` has accumulated since the last
    server step (one dispatch on the server, possibly several on the
    event engine)."""

    sampled: list[int] = field(default_factory=list)
    dropped: list[int] = field(default_factory=list)
    drop_reasons: list[str] = field(default_factory=list)
    bytes_down: int = 0
    fallback: str | None = None

    def drop(self, party: int, reason: str) -> None:
        self.dropped.append(party)
        self.drop_reasons.append(reason)


class Federation:
    """One federated round, shared by every engine (see the module text).

    ``parties`` is anything indexable by party id with a ``len``: a client
    list, or a lazy population's ``client_view()``.  ``executor`` and
    ``channel`` default to whatever ``config`` asks for; :meth:`close` (or
    using the federation as a context manager) releases the executor.
    """

    def __init__(
        self, model, algorithm, parties, config, test_dataset, executor, channel
    ):
        self.model = model
        self.algorithm = algorithm
        self.config = config
        self.test_dataset = test_dataset
        self._parties = parties
        self.global_state = model.state_dict()
        self.history = History()
        self._epoch = _Epoch()
        self._sampler_rng = np.random.default_rng(config.seed)
        self.fault_model = FaultModel.from_config(config)
        self._stratified: StratifiedSampler | None = None
        if config.sampler == "stratified":
            # Empty parties (legitimate under low-beta Dirichlet skew)
            # contribute zero counts; labels.max() on an empty array
            # would raise, so the class range comes from non-empty ones.
            label_maxima = [
                int(client.dataset.labels.max())
                for client in parties
                if len(client.dataset) > 0
            ]
            if not label_maxima:
                raise ValueError(
                    "stratified sampling needs at least one non-empty client"
                )
            num_classes = 1 + max(label_maxima)
            counts = np.stack(
                [client.dataset.class_counts(num_classes) for client in parties]
            )
            self._stratified = StratifiedSampler(counts)
        algorithm.prepare(model, parties, config)
        self.channel = channel if channel is not None else CommChannel.from_config(config)
        self._comm_keys = sorted(self.global_state)
        self.executor = executor if executor is not None else make_executor(config)
        self.executor.setup(model, algorithm, parties, config, self.channel)

    def _sample(self, fraction: float) -> list[int]:
        """Draw ``fraction`` of the parties, over-sampling under faults.

        With a fault model expected to lose a share ``d`` of sampled
        parties, sampling ``fraction / (1 - d)`` keeps the expected
        *completed* count at the configured participation.  The count is
        ``max(1, round(fraction * N))``; drawing every party returns them
        in index order without touching the sampler generator.
        """
        size = len(self._parties)
        if self.fault_model is not None and OVER_SAMPLE and fraction < 1.0:
            drop = self.fault_model.expected_drop_rate(self.config.deadline)
            fraction = min(1.0, fraction / (1.0 - drop)) if drop < 1.0 else 1.0
        count = max(1, int(round(fraction * size)))
        if self._stratified is not None:
            sampled = self._stratified.sample(count, self._sampler_rng)
        else:
            sampled = sample_clients(size, count, self._sampler_rng)
        return [int(p) for p in sampled]

    def _checkout(self, participants: list[int]) -> None:
        """Hook: make ``participants`` indexable in ``parties`` (lists are)."""

    def _dispatch(self, step: int, sampled: list[int]):
        """The client half of a round, against the current global model.

        Returns ``(participants, faults, execution, down_per_client)``:
        the parties that were dispatched, the armed faults among them
        (crashes, surviving stragglers), the executor's
        :class:`RoundExecution` and the broadcast's per-party byte cost.
        """
        epoch = self._epoch
        epoch.sampled.extend(sampled)
        # Dropouts and deadline-missing stragglers never dispatch;
        # crashes and surviving stragglers do.
        faults = (
            self.fault_model.round_faults(step, sampled)
            if self.fault_model is not None
            else {}
        )
        deadline = self.config.deadline
        participants: list[int] = []
        dispatched = {}
        for party in sampled:
            fault = faults.get(party, NO_FAULT)
            if fault.dropped:
                epoch.drop(party, "dropout")
            elif deadline is not None and fault.slowdown > deadline:
                epoch.drop(party, "deadline")
            else:
                participants.append(party)
                if not fault.ok:
                    dispatched[party] = fault
        self._checkout(participants)
        # What clients train from is what they would decode off the wire.
        # The server pushed the broadcast to every sampled party, so the
        # downlink is charged for all of them; only completers upload.
        extras = self.algorithm.broadcast_payload()
        broadcast_state, extras, down_per_client = self.channel.broadcast(
            self.global_state, extras, self._comm_keys
        )
        epoch.bytes_down += down_per_client * len(sampled)
        execution = self.executor.execute_round(
            broadcast_state, participants, extras, faults=dispatched or None
        )
        if epoch.fallback is None:
            epoch.fallback = execution.fallback
        # Commit persistent per-party state (SCAFFOLD c_i, local BN) in
        # participant order; aggregation later runs over the same ordering
        # — the two invariants that keep every backend bitwise-equal.
        for party, result in zip(execution.completed, execution.results):
            self.algorithm.commit(self._parties[party], result)
        return participants, dispatched, execution, down_per_client

    def _server_step(
        self, step, parties, results, slowdowns, new_state=None, **timing
    ) -> RoundRecord:
        """The server half: apply ``results`` (from ``parties``, in the
        order given) as server step ``step`` and record it.

        ``new_state`` replaces the algorithm's own aggregation (the event
        engine's mixed-staleness delta average); ``timing`` carries the
        event engine's ``virtual_time`` / ``staleness`` / ``buffer_flush``.
        """
        if new_state is not None:
            self.global_state = new_state
        elif results:
            self.global_state = self.algorithm.aggregate(
                self.global_state, results, self.config
            )
        accuracy = None
        if self.test_dataset is not None and (step + 1) % self.config.eval_every == 0:
            accuracy = self.evaluate()
        epoch, self._epoch = self._epoch, _Epoch()
        client_bytes_up = [r.upload_nbytes for r in results]
        bytes_up = sum(client_bytes_up)
        record = RoundRecord(
            round_index=step,
            test_accuracy=accuracy,
            train_loss=(
                float(np.mean([r.mean_loss for r in results]))
                if results
                else float("nan")
            ),
            participants=parties,
            bytes_communicated=epoch.bytes_down + bytes_up,
            client_steps=[r.num_steps for r in results],
            bytes_down=epoch.bytes_down,
            bytes_up=bytes_up,
            client_bytes_up=client_bytes_up,
            sampled=epoch.sampled,
            dropped=epoch.dropped,
            drop_reasons=epoch.drop_reasons,
            slowdowns=slowdowns if self.fault_model is not None else [],
            fallback=epoch.fallback,
            **timing,
        )
        self.history.append(record)
        return record

    def evaluate(self, dataset=None) -> float:
        """Top-1 accuracy of the current global model."""
        target = dataset if dataset is not None else self.test_dataset
        if target is None:
            raise ValueError("no test dataset provided")
        self.model.load_state_dict(self.global_state)
        result = evaluate_model(self.model, target, compiled=self.config.compile)
        return result.accuracy

    def close(self) -> None:
        """Release the executor's resources; idempotent."""
        self.executor.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class FederatedServer(Federation):
    """The synchronous server: every round waits for all it dispatched.

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
        Client-execution backend; pass an instance to inject a custom one.
    channel:
        Communication channel applying the run's update-compression
        codec and measuring payload bytes (see :mod:`repro.comm`); pass
        an instance to inject a custom codec.
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
        self.clients = clients
        self.round_callback = round_callback
        super().__init__(
            model, algorithm, clients, config, test_dataset, executor, channel
        )

    @property
    def num_parties(self) -> int:
        return len(self.clients)

    def run_round(self, round_index: int) -> RoundRecord:
        """Execute one communication round and return its record."""
        sampled = self._sample(self.config.sample_fraction)
        participants, faults, execution, _ = self._dispatch(round_index, sampled)
        for party in participants:
            if party in execution.failed:
                self._epoch.drop(party, execution.failed[party])
        record = self._server_step(
            round_index,
            execution.completed,
            execution.results,
            [faults.get(p, NO_FAULT).slowdown for p in execution.completed],
        )
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
