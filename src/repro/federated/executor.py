"""Client execution: one hardened round template and two backends.

The per-round unit of work is "run one party's local training against
the current global model".  :meth:`ClientExecutor.execute_round` is the
single definition of how a round of those tasks runs, and the server
(and the async engine) drive nothing else:

- the broadcast payload defaults to the algorithm's own, and the flat
  ``float32`` reference vector delta-mode codecs need is built only when
  the channel's codec is lossy;
- every party a backend does not finish in bulk goes through
  :meth:`ClientExecutor._resolve_party`, whose
  :meth:`ClientExecutor._run_one` is one party's task (fault arming,
  ``local_update``, then :meth:`ClientExecutor._upload` — the uplink
  coding via :func:`process_upload` that bulk-finished parties share);
- **bounded retry** — a task raising an unexpected exception is retried
  up to :data:`MAX_RETRIES` times from the same pre-task generator
  snapshot, so a *transient* fault recovers bitwise-identically to a
  fault-free run (the round's ``fallback`` is then ``"retry"``);
- **injected crashes** (:class:`~repro.federated.faults.InjectedCrash`)
  are deterministic by construction and are *not* retried: the party is
  reported failed and its partial work — including its advanced
  generator state — is discarded;
- results come back in *participant order*, whatever order the backend
  processed the parties in, so aggregation sees one sequence;
- **transactional commit** — each party's advanced generator state is
  staged and committed only after *every* task resolved; an exception
  mid-round leaves all clients exactly as they were, so the round can be
  retried or abandoned without corrupting RNG schedules.

Two backends plug into that template through one hook,
:meth:`ClientExecutor._run_groups`, which may finish some parties in
bulk and hands the rest back to the per-party path:

- :class:`SerialExecutor` (``executor="serial"``, the default) finishes
  none — every party runs one after another on the server's model;
- :class:`StackedExecutor` (``executor="stacked"``) trains groups of
  shape-compatible parties as one compiled program with a leading
  client axis, between the algorithm's own ``begin`` and ``finish``.

Both are registered in :data:`EXECUTORS`, which construction
(:func:`make_executor`), spec validation and the CLI all read.  A run
uses more than one core by running several cells at once
(``--jobs``, :mod:`repro.experiments.scheduler`), not by splitting a
round.

Purity contract
---------------
Bulk execution, the retry above and the async engine's out-of-order
arrivals are sound because of the algorithm purity contract (see
:mod:`repro.federated.algorithms.base`): a
client round is a pure function of ``(global_state, client payload,
config)`` and the party's private generator; it may use its ``model``
argument only as scratch workspace and must report persistent per-party
state changes in ``ClientResult.client_state`` instead of mutating
anything shared.  Results are therefore **bitwise identical across
backends**, which the contract suite in
``tests/federated/test_executor.py`` checks for every registered name.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from repro.comm.channel import RESIDUAL_KEY, CommChannel
from repro.data.loader import epoch_order
from repro.federated.algorithms.base import FedAlgorithm
from repro.federated.faults import InjectedCrash, PartyFault
from repro.federated.trainer import MOMENTUM, LocalTrainingResult
from repro.grad.capture import stacked_engine
from repro.grad.optim import StackedSGD
from repro.grad.serialize import state_dict_to_vector
from repro.registry import Registry

if TYPE_CHECKING:
    from repro.grad.nn.module import Module
    from repro.federated.algorithms.base import ClientResult
    from repro.federated.client import Client
    from repro.federated.config import FederatedConfig

#: retries of a party task that raised an unexpected (non-injected)
#: exception before the round gives up with nothing committed
MAX_RETRIES = 1


def process_upload(channel, algorithm, result, client, reference, keys) -> None:
    """Run one result through the uplink side of the comm channel.

    Mutates ``result`` in place: its state and payload become what the
    server reconstructs after decoding, ``upload_nbytes`` records the
    measured wire size, and an error-feedback residual (if the codec
    keeps one) is added to ``result.client_state`` so the server commits
    it into ``client.state`` like any other persistent per-party state.
    Uses ``client.rng`` for stochastic codecs — the party's own generator,
    staged and committed with the round, so every backend draws the
    same bits.
    """
    residual = None
    if channel.codec.error_feedback:
        residual = client.state.get(RESIDUAL_KEY)
    state, extras, nbytes, new_residual = channel.encode_upload(
        result.state,
        result.payload,
        reference,
        keys,
        client.rng,
        residual=residual,
        metadata_floats=algorithm.uplink_metadata_floats(),
    )
    result.state = state
    result.payload = extras
    result.upload_nbytes = nbytes
    if new_residual is not None:
        result.client_state[RESIDUAL_KEY] = new_residual


@dataclass
class RoundExecution:
    """What one hardened round execution produced.

    ``results`` holds the completed parties' results in participant
    order; ``failed`` maps each party that did not finish to a short
    reason string (``"crash@step3"``); ``fallback`` names the recovery
    path taken when any task needed one (``"retry"``, or
    ``"stacked:serial"`` for a stack that degraded to per-party runs),
    ``None`` for a clean round.
    """

    results: "list[ClientResult]" = field(default_factory=list)
    completed: list[int] = field(default_factory=list)
    failed: dict[int, str] = field(default_factory=dict)
    fallback: str | None = None


@dataclass
class _Round:
    """One round's inputs plus its staging area.

    Nothing staged here touches a client until
    :meth:`ClientExecutor.execute_round` commits: results wait keyed by
    party, advanced generator states wait in ``staged_rng``.
    """

    global_state: dict[str, np.ndarray]
    payload: dict
    faults: "Mapping[int, PartyFault]"
    #: flat broadcast reference and its key order (lossy codecs only)
    reference: np.ndarray | None
    keys: list[str] | None
    execution: RoundExecution = field(default_factory=RoundExecution)
    results: "dict[int, ClientResult]" = field(default_factory=dict)
    staged_rng: dict[int, dict] = field(default_factory=dict)


class ClientExecutor:
    """The hardened round (see the module docstring); backends subclass it."""

    def setup(
        self,
        model: "Module",
        algorithm: "FedAlgorithm",
        clients: "list[Client]",
        config: "FederatedConfig",
        channel: CommChannel,
    ) -> None:
        """Bind the run's shared objects; called once by the federation.

        ``channel`` is the run's uplink codec + byte meter.
        """
        self.model = model
        self.algorithm = algorithm
        self.clients = clients
        self.config = config
        self.channel = channel

    def execute_round(
        self,
        global_state: dict[str, np.ndarray],
        participants: Sequence[int],
        payload: dict | None = None,
        faults: "Mapping[int, PartyFault] | None" = None,
    ) -> RoundExecution:
        """Run local training for ``participants``; results in their order.

        ``payload`` is the (already channel-encoded) broadcast extras;
        when ``None`` the executor asks the algorithm directly, which is
        the uncompressed pre-channel behaviour.  ``faults`` carries
        injected per-party failures for this round; parties the fault
        model already dropped must not appear in ``participants`` at all.
        """
        if payload is None:
            payload = self.algorithm.broadcast_payload()
        keys: list[str] | None = None
        reference: np.ndarray | None = None
        if not self.channel.codec.lossless:
            keys = sorted(global_state)
            reference = state_dict_to_vector(global_state, keys=keys)
        work = _Round(global_state, payload, faults or {}, reference, keys)
        for party in self._run_groups(participants, work):
            self._resolve_party(party, work)
        execution = work.execution
        for party in participants:
            if party in work.results:
                execution.results.append(work.results[party])
                execution.completed.append(party)
        # The commit: an irrecoverable failure above raised before any
        # client's generator moved.
        for party, rng_state in work.staged_rng.items():
            self.clients[party].rng.bit_generator.state = rng_state
        return execution

    def _run_groups(self, participants: Sequence[int], work: _Round) -> Sequence[int]:
        """Backend hook: finish some parties in bulk, return the rest.

        A finished party has its result in ``work.results``, its advanced
        generator state in ``work.staged_rng`` and its live generator
        back at the pre-round snapshot.  The base finishes none.
        """
        return participants

    def _resolve_party(self, party: int, work: _Round) -> None:
        """Run one party's task transactionally.

        On success the result and the advanced generator state are
        staged in ``work`` and the live generator is restored to its
        pre-task snapshot; an injected crash records the party in
        ``work.execution.failed`` instead.  Unexpected exceptions retry
        up to :data:`MAX_RETRIES` times and then propagate with
        nothing staged.
        """
        client = self.clients[party]
        snapshot = client.rng.bit_generator.state
        attempts = 0
        while True:
            try:
                result = self._run_one(client, work.faults.get(party), work)
            except InjectedCrash as crash:
                # Deterministic by construction: no retry.  The party's
                # partial work (and generator draws) die with it.
                client.rng.bit_generator.state = snapshot
                work.execution.failed[party] = f"crash@step{crash.steps_completed}"
                return
            except Exception:
                client.rng.bit_generator.state = snapshot
                attempts += 1
                if attempts > MAX_RETRIES:
                    raise
                work.execution.fallback = "retry"
                continue
            work.staged_rng[party] = client.rng.bit_generator.state
            client.rng.bit_generator.state = snapshot
            work.results[party] = result
            return

    def _run_one(self, client, fault, work: _Round):
        """One party's task: fault arming, local update, uplink coding."""
        if fault is not None and fault.crash_after_steps is not None:
            client.crash_after_steps = fault.crash_after_steps
        try:
            result = self.algorithm.local_update(
                self.model, work.global_state, client, self.config, work.payload
            )
        finally:
            client.crash_after_steps = None
        return self._upload(result, client, work)

    def _upload(self, result, client, work: _Round):
        """The uplink step every finished party goes through."""
        process_upload(
            self.channel, self.algorithm, result, client, work.reference, work.keys
        )
        return result

    def close(self) -> None:
        """Release backend resources (idempotent)."""


class SerialExecutor(ClientExecutor):
    """Run parties one after another on the server's workspace model."""

    def __repr__(self) -> str:
        return "SerialExecutor()"


class StackedDriftError(RuntimeError):
    """The stacked replay diverged from the serial reference run.

    Raised by :class:`StackedExecutor`'s automated drift check.  On hosts
    whose BLAS reassociates batched-GEMM reductions exactness is
    impossible; run those with ``--executor serial``.
    """


def _stack_signature(terms: dict) -> tuple:
    """The part of a party's training terms a whole stack must share."""
    return (
        terms.get("proximal_mu", 0.0),
        terms.get("correction") is None,
        terms.get("correction_mode", "step"),
    )


class StackedExecutor(ClientExecutor):
    """Batch K clients' local rounds into one fat compiled replay.

    The round's sampled parties are grouped into stacks of up to
    ``stack_size`` clients with identical work shape (same epoch count
    and sample count, batch-size-divisible data).  Each group trains
    through a single :class:`~repro.grad.capture.StackedStep` whose
    buffers carry a leading client axis, so every local SGD step of the
    whole group is a handful of large NumPy ops instead of K small
    Python loops.  A stacked party still runs the algorithm's one round
    template (:meth:`FedAlgorithm.local_update`), once: ``begin`` for
    each of the K parties, the batched loop in place of K
    ``run_local_training`` calls, then ``finish`` and the shared uplink
    step per party.

    Determinism: per-client generator draws (the per-epoch shuffles, any
    codec draws) happen in the exact serial order, and all stacked
    kernels are per-slice bitwise mirrors of the serial compiled step, so
    results are required to be bit-identical to :class:`SerialExecutor` —
    verified once per run by re-running the first stacked group through
    ``local_update`` itself (:class:`StackedDriftError` on violation).
    Parties that do not fit the stacking contract (ragged batches, armed
    crash faults, non-SGD optimizer, DP noise, an algorithm with its own
    ``local_update``, parties whose training terms disagree, models the
    stacked compile rejects) go through the per-party path, per party or
    per group.
    """

    def __init__(self, stack_size: int = 16):
        if stack_size < 2:
            raise ValueError(
                f"StackedExecutor needs stack_size >= 2, got {stack_size}; "
                "use SerialExecutor for single-client execution"
            )
        self.stack_size = stack_size
        self._drift_checked = False

    def _run_groups(self, participants, work):
        groups, serial_parties = self._plan(participants, work.faults)
        for group in groups:
            if not self._run_stack(group, work):
                if work.execution.fallback is None:
                    work.execution.fallback = "stacked:serial"
                serial_parties = serial_parties + group
        return serial_parties

    def _plan(self, participants, faults):
        """Split the round into stackable groups and serial leftovers.

        A party is stackable when its local work is shape-static: the
        algorithm's round is the base template, SGD without DP, no armed
        crash fault, and a sample count that is a positive multiple of
        the batch size (no ragged last batch).  Stackable parties are
        grouped by (epochs, num_samples) and chunked to ``stack_size`` in
        participant order; singleton chunks gain nothing from batching
        and stay serial.
        """
        config = self.config
        config_ok = (
            config.optimizer == "sgd"
            and not config.dp_noise_multiplier
            and type(self.algorithm).local_update is FedAlgorithm.local_update
        )
        serial: list[int] = []
        by_key: dict[tuple, list[int]] = {}
        for party in participants:
            client = self.clients[party]
            fault = faults.get(party) if faults else None
            samples = client.num_samples
            if (
                not config_ok
                or (fault is not None and fault.crash_after_steps is not None)
                or samples == 0
                or samples % config.batch_size != 0
            ):
                serial.append(party)
                continue
            key = (client.epochs(config.local_epochs), samples)
            by_key.setdefault(key, []).append(party)
        groups: list[list[int]] = []
        for parties in by_key.values():
            for start in range(0, len(parties), self.stack_size):
                chunk = parties[start : start + self.stack_size]
                if len(chunk) < 2:
                    serial.extend(chunk)
                else:
                    groups.append(chunk)
        return groups, serial

    def _run_stack(self, group, work) -> bool:
        """Try one group end to end; False degrades the group to serial.

        Transactional like the serial path: on any failure every group
        member's generator is back at its pre-group snapshot and nothing
        is staged, so the serial rerun (or a raised error) sees clean
        state.  :class:`StackedDriftError` propagates — a broken
        exactness contract must not be silently papered over.
        """
        algorithm, model, config = self.algorithm, self.model, self.config
        clients = [self.clients[party] for party in group]
        snapshots = [client.rng.bit_generator.state for client in clients]
        try:
            starts = []
            for client in clients:
                terms = algorithm.begin(
                    model, work.global_state, client, config, work.payload
                )
                starts.append((model.state_dict(), terms))
            if len({_stack_signature(terms) for _, terms in starts}) > 1:
                return False
            outcomes = self._train_stack(clients, starts)
            if not self._drift_checked:
                self._check_drift(group, snapshots, outcomes, work)
                self._drift_checked = True
            # Each generator now sits where serial training leaves it, so
            # anything after the training call (SCAFFOLD option-1 full-batch
            # pass, codec draws) sees the serial sequence.
            finished = []
            for client, (_, terms), outcome in zip(clients, starts, outcomes):
                model.load_state_dict(outcome.state)
                result = algorithm.finish(
                    model, work.global_state, client, config, work.payload,
                    terms, outcome,
                )
                result = self._upload(result, client, work)
                finished.append((result, client.rng.bit_generator.state))
        except StackedDriftError:
            raise
        except Exception:
            # A fault in ``begin`` / ``finish``, CaptureError (model the
            # compiler rejects — memoized, so later rounds skip the
            # attempt) or anything unexpected: the serial rerun either
            # succeeds or surfaces the real error through the retry
            # machinery.
            return False
        finally:
            for client, snapshot in zip(clients, snapshots):
                client.rng.bit_generator.state = snapshot
        for party, (result, rng_state) in zip(group, finished):
            work.results[party] = result
            work.staged_rng[party] = rng_state
        return True

    def _train_stack(self, clients, starts) -> "list[LocalTrainingResult]":
        """The group's local SGD as one batched program.

        ``starts`` holds each party's ``(start state, training terms)``
        from ``begin``; the terms' scalar part agrees across the group.
        """
        config = self.config
        model = self.model
        stack = len(clients)
        first_client = clients[0]
        features = first_client.dataset.features
        labels = first_client.dataset.labels
        batch = config.batch_size
        program = stacked_engine(model).program(
            stack,
            np.zeros((batch,) + features.shape[1:], features.dtype),
            np.zeros((batch,), labels.dtype),
        )
        param_keys = [name for name, _ in model.named_parameters()]
        stacks = [program.param_stack(i) for i in range(len(param_keys))]
        for k, (state0, _) in enumerate(starts):
            for buffer, key in zip(stacks, param_keys):
                if buffer is not None:
                    buffer[k] = state0[key]

        def per_client(name):
            return [
                np.stack([terms[name][i] for _, terms in starts])
                for i in range(len(param_keys))
            ]

        terms = starts[0][1]
        optimizer = StackedSGD(
            stacks,
            lr=config.lr,
            momentum=MOMENTUM,
            proximal_mu=terms.get("proximal_mu", 0.0),
        )
        if optimizer.proximal_mu > 0:
            optimizer.set_anchor(per_client("anchor"))
        if terms.get("correction") is not None:
            optimizer.set_correction(
                per_client("correction"), mode=terms.get("correction_mode", "step")
            )
        epochs = first_client.epochs(config.local_epochs)
        samples = first_client.num_samples
        steps_per_epoch = samples // batch
        # All shuffle orders are drawn up front, per client in epoch
        # order through the serial DataLoader's own ``epoch_order``
        # (training itself draws nothing), so each private generator ends
        # the phase in its serial post-training state.
        orders = []
        data = []
        for client in clients:
            orders.append([epoch_order(samples, client.rng) for _ in range(epochs)])
            data.append((client.dataset.features, client.dataset.labels))
        feature_buf = program.features
        label_buf = program.labels
        totals = [0.0] * stack
        steps = 0
        for epoch in range(epochs):
            for step in range(steps_per_epoch):
                lo = step * batch
                hi = lo + batch
                for k in range(stack):
                    index = orders[k][epoch][lo:hi]
                    feature_buf[k] = data[k][0][index]
                    label_buf[k] = data[k][1][index]
                losses = program.step()
                optimizer.step(program.grads())
                for k in range(stack):
                    totals[k] += float(losses[k])
                steps += 1
        outcomes = []
        for k, (state0, _) in enumerate(starts):
            state = dict(state0)
            for buffer, key in zip(stacks, param_keys):
                if buffer is not None:
                    state[key] = buffer[k].copy()
            outcomes.append(
                LocalTrainingResult(
                    state=state,
                    num_steps=steps,
                    num_samples=samples,
                    mean_loss=totals[k] / max(steps, 1),
                )
            )
        return outcomes

    def _check_drift(self, group, snapshots, outcomes, work) -> None:
        """Re-run the group through ``local_update`` and compare.

        Once per run, on the first stacked group; any difference in bits
        is a :class:`StackedDriftError`.
        """
        for party, snapshot, stacked in zip(group, snapshots, outcomes):
            client = self.clients[party]
            post_rng = client.rng.bit_generator.state
            client.rng.bit_generator.state = snapshot
            serial = self.algorithm.local_update(
                self.model, work.global_state, client, self.config, work.payload
            )
            client.rng.bit_generator.state = post_rng
            if serial.num_steps != stacked.num_steps:
                raise StackedDriftError(
                    f"stacked replay ran {stacked.num_steps} steps for party "
                    f"{party} where serial ran {serial.num_steps}"
                )
            for key, reference in serial.state.items():
                if not np.array_equal(reference, stacked.state[key]):
                    raise StackedDriftError(
                        f"stacked replay diverged from serial on party "
                        f"{party} key {key!r}; this host's batched GEMM is "
                        "not bitwise exact — run with --executor serial"
                    )

    def __repr__(self) -> str:
        return f"StackedExecutor(stack_size={self.stack_size})"


#: backend name -> factory taking the run's :class:`FederatedConfig`; the
#: one table construction, spec validation and the CLI read
EXECUTORS = Registry("executor")
EXECUTORS.register(
    "serial",
    lambda config: SerialExecutor(),
    summary="one party after another on the server's model (default)",
)
EXECUTORS.register(
    "stacked",
    lambda config: StackedExecutor(stack_size=config.stack_size),
    summary="batch `stack_size` shape-compatible parties into one replay",
)


def make_executor(config: "FederatedConfig") -> ClientExecutor:
    """Build the executor a :class:`FederatedConfig` asks for."""
    return EXECUTORS.build(config.executor, config)
