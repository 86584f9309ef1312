"""Pluggable client-execution backends for the federated round loop.

The per-round unit of work — "run one party's local training against the
current global model" — is embarrassingly parallel, and FL simulators built
for this workload (FedJAX, FedML's distributed-computing layer) all treat
it that way.  This module provides two interchangeable backends:

- :class:`SerialExecutor` — the classic single-process loop (default);
- :class:`ParallelExecutor` — a fork-based ``multiprocessing`` pool with
  one long-lived model replica per worker.

Both rely on the algorithm purity contract (see
:meth:`repro.federated.algorithms.base.FedAlgorithm.local_update`): a
client round is a pure function of ``(global_state, client payload,
config)`` that may use its ``model`` argument only as scratch workspace
and must report persistent per-party state changes in
``ClientResult.client_state`` instead of mutating anything shared.

Determinism
-----------
Results are **bitwise identical regardless of worker count**:

- each party owns a private ``numpy`` generator; the worker receives its
  current state with the task and returns the advanced state with the
  result, so shuffling sequences match the serial schedule exactly;
- the global state is shipped as a flat ``float32`` vector (the
  :mod:`repro.grad.serialize` transport dtype) and unflattened against the
  worker replica — a lossless round-trip for ``float32`` model states;
- the server consumes results in *participant order* (submission order),
  never completion order, so aggregation sees the same sequence the
  serial loop produces.

Fault tolerance
---------------
:meth:`ClientExecutor.execute_round` is the hardened entry point the
server drives.  Its contract:

- **transactional commit** — client generator states advance only after
  *every* dispatched task resolved (success or definitive failure); an
  exception mid-round leaves all clients exactly as they were, so the
  round can be retried or abandoned without corrupting RNG schedules;
- **bounded retry** — a task raising an unexpected exception is retried
  up to ``config.max_retries`` times from the same pre-task snapshot,
  so a *transient* fault recovers bitwise-identically to a fault-free
  run;
- **serial re-execution fallback** — the parallel backend re-runs a
  task that keeps failing in the pool directly in the parent process
  (covering worker death and transport corruption) before giving up
  loudly;
- **injected crashes** (:class:`~repro.federated.faults.InjectedCrash`)
  are deterministic by construction and are *not* retried: the party is
  reported failed and its partial work — including its advanced
  generator state — is discarded.

Workers are forked lazily on the first round, after
:meth:`FedAlgorithm.prepare`, so the replicas inherit the datasets and
cached key structure by copy-on-write instead of pickling them.
"""

from __future__ import annotations

import multiprocessing
import os
import warnings
import weakref
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from repro.comm.channel import RESIDUAL_KEY, CommChannel
from repro.federated.faults import InjectedCrash, PartyFault
from repro.federated.trainer import (
    LocalTrainingResult,
    local_training_hook,
    run_local_training,
)
from repro.grad.capture import stacked_engine
from repro.grad.optim import StackedSGD
from repro.grad.serialize import state_dict_to_vector, vector_to_state_dict

if TYPE_CHECKING:
    from repro.grad.nn.module import Module
    from repro.federated.algorithms.base import ClientResult, FedAlgorithm
    from repro.federated.client import Client
    from repro.federated.config import FederatedConfig


def fork_available() -> bool:
    """Whether this platform supports fork-based worker pools."""
    return "fork" in multiprocessing.get_all_start_methods()


def _effective_cpu_count() -> int:
    """CPUs the pool could actually use (monkeypatchable in tests)."""
    return os.cpu_count() or 1


def process_upload(channel, algorithm, result, client, reference, keys) -> None:
    """Run one result through the uplink side of the comm channel.

    Mutates ``result`` in place: its state and payload become what the
    server reconstructs after decoding, ``upload_nbytes`` records the
    measured wire size, and an error-feedback residual (if the codec
    keeps one) is added to ``result.client_state`` so the server commits
    it into ``client.state`` like any other persistent per-party state.
    Uses ``client.rng`` for stochastic codecs — its state already travels
    between server and workers, so serial and parallel runs draw the
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
    path taken when any task needed one (``"retry"`` or ``"serial"``),
    ``None`` for a clean round.
    """

    results: "list[ClientResult]" = field(default_factory=list)
    completed: list[int] = field(default_factory=list)
    failed: dict[int, str] = field(default_factory=dict)
    fallback: str | None = None


class ClientExecutor:
    """Interface: run the sampled parties' local rounds for one round."""

    def setup(
        self,
        model: "Module",
        algorithm: "FedAlgorithm",
        clients: "list[Client]",
        config: "FederatedConfig",
        channel: CommChannel | None = None,
    ) -> None:
        """Bind the run's shared objects; called once by the server.

        ``channel`` enables uplink codec processing + byte metering; when
        ``None`` (standalone executor use) results pass through raw.
        """
        self.model = model
        self.algorithm = algorithm
        self.clients = clients
        self.config = config
        self.channel = channel

    def run_round(
        self,
        global_state: dict[str, np.ndarray],
        participants: Sequence[int],
        payload: dict | None = None,
    ) -> "list[ClientResult]":
        """Execute local training for ``participants``, in their order.

        ``payload`` is the (already channel-encoded) broadcast extras;
        when ``None`` the executor asks the algorithm directly, which is
        the uncompressed pre-channel behaviour.  Without injected faults
        every party completes (unexpected failures raise after retries),
        so this returns the bare result list.
        """
        return self.execute_round(global_state, participants, payload).results

    def execute_round(
        self,
        global_state: dict[str, np.ndarray],
        participants: Sequence[int],
        payload: dict | None = None,
        faults: "Mapping[int, PartyFault] | None" = None,
    ) -> RoundExecution:
        """Fault-tolerant round execution (see the module docstring).

        ``faults`` carries injected per-party failures for this round;
        parties the fault model already dropped must not appear in
        ``participants`` at all.
        """
        raise NotImplementedError

    def _max_retries(self) -> int:
        config = getattr(self, "config", None)
        return config.max_retries if config is not None else 1

    def close(self) -> None:
        """Release backend resources (idempotent)."""

    def __enter__(self) -> "ClientExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SerialExecutor(ClientExecutor):
    """Run parties one after another on the server's workspace model.

    ``note``, when set, is recorded as each round's ``fallback`` so the
    history shows *why* this run degraded to serial (e.g. ``"auto"``
    found a single-CPU host); ``None`` leaves clean rounds unmarked.
    """

    def __init__(self, note: str | None = None):
        self._note = note

    def execute_round(
        self,
        global_state: dict[str, np.ndarray],
        participants: Sequence[int],
        payload: dict | None = None,
        faults: "Mapping[int, PartyFault] | None" = None,
    ) -> RoundExecution:
        if payload is None:
            payload = self.algorithm.broadcast_payload()
        channel = self.channel
        # The identity codec never transforms state, so the flat reference
        # vector (only needed by delta-mode codecs) is built lazily.
        keys: list[str] | None = None
        reference: np.ndarray | None = None
        execution = RoundExecution()
        max_retries = self._max_retries()
        # Advanced generator states stage here and commit only after the
        # whole round resolved — an irrecoverable failure on a later
        # party must leave every client untouched.
        staged_rng: dict[int, dict] = {}
        for party in participants:
            if channel is not None and keys is None and not channel.codec.lossless:
                keys = sorted(global_state)
                reference = state_dict_to_vector(global_state, keys=keys)
            result = self._resolve_party(
                party, global_state, payload, faults, reference, keys,
                execution, staged_rng, max_retries,
            )
            if result is not None:
                execution.results.append(result)
                execution.completed.append(party)
        for party, rng_state in staged_rng.items():
            self.clients[party].rng.bit_generator.state = rng_state
        if execution.fallback is None and self._note is not None:
            execution.fallback = self._note
        return execution

    def _resolve_party(
        self, party, global_state, payload, faults, reference, keys,
        execution, staged_rng, max_retries,
    ):
        """Run one party's task transactionally; the serial unit of work.

        Returns the :class:`ClientResult` (with the advanced generator
        state staged in ``staged_rng``, the live generator restored to
        its pre-task snapshot), or None when the party failed via an
        injected crash (recorded in ``execution.failed``).  Unexpected
        exceptions retry up to ``max_retries`` times and then propagate
        with nothing staged.
        """
        client = self.clients[party]
        fault = faults.get(party) if faults else None
        snapshot = client.rng.bit_generator.state
        attempts = 0
        while True:
            try:
                result = self._run_one(
                    client, global_state, payload, fault, reference, keys
                )
            except InjectedCrash as crash:
                # Deterministic by construction: no retry.  The party's
                # partial work (and generator draws) die with it.
                client.rng.bit_generator.state = snapshot
                execution.failed[party] = f"crash@step{crash.steps_completed}"
                return None
            except Exception:
                client.rng.bit_generator.state = snapshot
                attempts += 1
                if attempts > max_retries:
                    raise
                execution.fallback = "retry"
                continue
            staged_rng[party] = client.rng.bit_generator.state
            client.rng.bit_generator.state = snapshot
            return result

    def _run_one(self, client, global_state, payload, fault, reference, keys):
        """One party's task: fault arming, local update, uplink coding."""
        if fault is not None and fault.crash_after_steps is not None:
            client.crash_after_steps = fault.crash_after_steps
        try:
            result = self.algorithm.local_update(
                self.model, global_state, client, self.config, payload
            )
        finally:
            client.crash_after_steps = None
        if self.channel is not None:
            process_upload(
                self.channel, self.algorithm, result, client, reference, keys
            )
        return result

    def __repr__(self) -> str:
        if self._note is not None:
            return f"SerialExecutor(note={self._note!r})"
        return "SerialExecutor()"


# ----------------------------------------------------------------------
# Fork-side worker machinery
# ----------------------------------------------------------------------
class _WorkerState:
    """Everything a worker inherits at fork time (copy-on-write)."""

    __slots__ = ("model", "algorithm", "clients", "config", "keys", "channel", "template")

    def __init__(self, model, algorithm, clients, config, keys, channel):
        self.model = model
        self.algorithm = algorithm
        self.clients = clients
        self.config = config
        self.keys = keys
        self.channel = channel
        self.template = None  # lazily cached state-dict template


#: Set in the parent immediately before the pool forks; each worker keeps
#: the inherited snapshot.  Only the mutable bits (rng state, per-party
#: state, the global model vector) travel with each task.
_FORK_STATE: _WorkerState | None = None


def _run_task(
    client_index, global_vec, rng_state, client_state, payload, crash_after=None
):
    """Worker entry: one party's local round against the shipped state."""
    state = _FORK_STATE
    if state is None:  # pragma: no cover - defensive; fork guarantees it
        raise RuntimeError("worker has no inherited federation state")
    if state.template is None:
        state.template = state.model.state_dict()
    client = state.clients[client_index]
    client.rng.bit_generator.state = rng_state
    client.state = client_state
    global_state = vector_to_state_dict(global_vec, state.template, keys=state.keys)
    # Workers are long-lived and client objects are reused across tasks,
    # so the injected-crash arming must not outlive this task.
    client.crash_after_steps = crash_after
    try:
        result = state.algorithm.local_update(
            state.model, global_state, client, state.config, payload
        )
    finally:
        client.crash_after_steps = None
    if state.channel is not None:
        # global_vec is exactly the flat broadcast reference delta-mode
        # codecs need; the uplink draws from client.rng, whose advanced
        # state returns to the parent with the result.
        process_upload(
            state.channel, state.algorithm, result, client, global_vec, state.keys
        )
    return result, client.rng.bit_generator.state


def _shutdown_pool(pool) -> None:
    """Tear a pool down, tolerating an already-broken or closed pool.

    After a worker crash the pool object can be in a half-dead state
    where ``terminate()``/``join()`` themselves raise; teardown must
    still complete (and stay idempotent) so ``close()`` after a failed
    round — or the GC finalizer after an explicit ``close()`` — never
    masks the original error with a shutdown error.
    """
    try:
        pool.terminate()
    except Exception:
        pass
    try:
        pool.join()
    except Exception:
        pass


class ParallelExecutor(ClientExecutor):
    """Train sampled parties concurrently in a fork-based process pool.

    Parameters
    ----------
    num_workers:
        Number of worker processes (>= 2; use :class:`SerialExecutor` for
        single-process execution).  Values above the number of sampled
        parties per round are harmless — excess workers idle.
    """

    def __init__(self, num_workers: int):
        if num_workers < 2:
            raise ValueError(
                f"ParallelExecutor needs num_workers >= 2, got {num_workers}; "
                "use SerialExecutor for single-process execution"
            )
        if not fork_available():
            raise RuntimeError(
                "ParallelExecutor requires the 'fork' start method (POSIX); "
                "use SerialExecutor on this platform"
            )
        self.num_workers = num_workers
        self._pool = None
        self._keys: list[str] | None = None
        self._finalizer = None

    def _ensure_pool(self, global_state: dict[str, np.ndarray]) -> None:
        if self._pool is not None:
            return
        global _FORK_STATE
        self._keys = sorted(global_state)
        _FORK_STATE = _WorkerState(
            self.model, self.algorithm, self.clients, self.config, self._keys,
            self.channel,
        )
        try:
            context = multiprocessing.get_context("fork")
            self._pool = context.Pool(self.num_workers)
        finally:
            _FORK_STATE = None
        self._finalizer = weakref.finalize(self, _shutdown_pool, self._pool)

    def execute_round(
        self,
        global_state: dict[str, np.ndarray],
        participants: Sequence[int],
        payload: dict | None = None,
        faults: "Mapping[int, PartyFault] | None" = None,
    ) -> RoundExecution:
        self._ensure_pool(global_state)
        if payload is None:
            payload = self.algorithm.broadcast_payload()
        global_vec = state_dict_to_vector(global_state, keys=self._keys)
        faults = faults or {}
        max_retries = self._max_retries()

        def submit(party):
            client = self.clients[party]
            fault = faults.get(party)
            crash_after = fault.crash_after_steps if fault is not None else None
            return self._pool.apply_async(
                _run_task,
                (
                    party,
                    global_vec,
                    client.rng.bit_generator.state,
                    client.state,
                    payload,
                    crash_after,
                ),
            )

        pending = [(party, submit(party)) for party in participants]
        execution = RoundExecution()
        # Parent client generators advance only in the commit phase below,
        # so an irrecoverable failure anywhere leaves them untouched.
        staged: dict[int, tuple] = {}
        # Collect in submission (= participant) order, not completion order,
        # so aggregation is independent of worker scheduling.
        for party, handle in pending:
            try:
                staged[party] = handle.get()
                continue
            except InjectedCrash as crash:
                # Deterministic injection: the party is lost this round.
                execution.failed[party] = f"crash@step{crash.steps_completed}"
                continue
            except Exception:
                pass
            if self._recover(
                party, global_state, global_vec, payload, faults,
                staged, execution, max_retries,
            ):
                continue
        for party in participants:
            if party in staged:
                result, rng_state = staged[party]
                self.clients[party].rng.bit_generator.state = rng_state
                execution.results.append(result)
                execution.completed.append(party)
        return execution

    def _recover(
        self, party, global_state, global_vec, payload, faults,
        staged, execution, max_retries,
    ) -> bool:
        """Retry a failed task through the pool, then serially in-parent.

        Returns True when the party resolved (result staged or marked
        failed); raises when every path is exhausted — with nothing
        committed, so the caller's clients are unchanged.
        """
        client = self.clients[party]
        fault = faults.get(party)
        for _ in range(max_retries):
            execution.fallback = "retry"
            handle = self._pool.apply_async(
                _run_task,
                (
                    party,
                    global_vec,
                    client.rng.bit_generator.state,
                    client.state,
                    payload,
                    fault.crash_after_steps if fault is not None else None,
                ),
            )
            try:
                staged[party] = handle.get()
                return True
            except InjectedCrash as crash:
                execution.failed[party] = f"crash@step{crash.steps_completed}"
                return True
            except Exception:
                continue
        # Serial re-execution in the parent: immune to worker death and
        # result-transport corruption.  The parent client's generator is
        # still at its pre-round state, so the task replays exactly.
        execution.fallback = "serial"
        snapshot = client.rng.bit_generator.state
        if fault is not None and fault.crash_after_steps is not None:
            client.crash_after_steps = fault.crash_after_steps
        try:
            result = self.algorithm.local_update(
                self.model, global_state, client, self.config, payload
            )
            if self.channel is not None:
                process_upload(
                    self.channel, self.algorithm, result, client,
                    global_vec, self._keys,
                )
            staged[party] = (result, client.rng.bit_generator.state)
            return True
        except InjectedCrash as crash:
            execution.failed[party] = f"crash@step{crash.steps_completed}"
            return True
        finally:
            client.crash_after_steps = None
            client.rng.bit_generator.state = snapshot

    def close(self) -> None:
        # Detach state *before* running the finalizer: if shutdown is
        # interrupted (KeyboardInterrupt mid-terminate), a second close()
        # must be a no-op rather than double-shutting the pool.
        finalizer, self._finalizer, self._pool = self._finalizer, None, None
        if finalizer is not None:
            finalizer()

    def __repr__(self) -> str:
        return f"ParallelExecutor(num_workers={self.num_workers})"


class StackedDriftError(RuntimeError):
    """The stacked replay diverged from the serial reference run.

    Raised by :class:`StackedExecutor`'s automated drift check.  On hosts
    whose BLAS reassociates batched-GEMM reductions exactness is
    impossible; pass ``--stacked-tolerance`` (``stacked_tolerance`` in
    the config) to accept a bounded per-element deviation instead.
    """


class _StackCall:
    """One intercepted ``run_local_training`` call, frozen for replay."""

    __slots__ = ("state0", "proximal_mu", "anchor", "correction", "correction_mode")

    def __init__(self, state0, proximal_mu, anchor, correction, correction_mode):
        self.state0 = state0
        self.proximal_mu = proximal_mu
        self.anchor = anchor
        self.correction = correction
        self.correction_mode = correction_mode


class _StackDeferred(Exception):
    """Unwinds ``local_update`` at the training call during recording."""

    def __init__(self, call: _StackCall):
        super().__init__("local training deferred to the stacked program")
        self.call = call


class _StackRecord:
    """Per-party bookkeeping across the stacked phases."""

    __slots__ = ("party", "client", "call", "result", "post_rng")

    def __init__(self, party, client, call):
        self.party = party
        self.client = client
        self.call = call
        self.result: LocalTrainingResult | None = None
        self.post_rng = None


class StackedExecutor(SerialExecutor):
    """Batch K clients' local rounds into one fat compiled replay.

    The round's sampled parties are grouped into stacks of up to
    ``stack_size`` clients with identical work shape (same epoch count
    and sample count, batch-size-divisible data).  Each group trains
    through a single :class:`~repro.grad.capture.StackedStep` whose
    buffers carry a leading client axis, so every local SGD step of the
    whole group is a handful of large NumPy ops instead of K small
    Python loops.  Everything around the training loop — the algorithm's
    ``local_update`` body, uplink codecs, fault injection, retries — is
    the inherited serial machinery, driven via the trainer hook in two
    passes:

    1. **record**: ``local_update`` runs until it calls
       ``run_local_training``; the hook captures the loaded start state
       and optimizer arguments and unwinds;
    2. **replay**: after the batched training, ``local_update`` runs
       again and the hook hands it the precomputed result.

    Determinism: per-client generator draws (the per-epoch shuffles, any
    codec draws) happen in the exact serial order, and all stacked
    kernels are per-slice bitwise mirrors of the serial compiled step, so
    with ``tolerance == 0.0`` results are required to be bit-identical to
    :class:`SerialExecutor` — verified once per run by re-running the
    first stacked group serially (:class:`StackedDriftError` on
    violation).  Parties that do not fit the stacking contract (ragged
    batches, armed crash faults, non-SGD optimizer, DP noise, models the
    stacked compile rejects) fall back to the serial path per party or
    per group.
    """

    def __init__(self, stack_size: int = 16, tolerance: float = 0.0):
        super().__init__()
        if stack_size < 2:
            raise ValueError(
                f"StackedExecutor needs stack_size >= 2, got {stack_size}; "
                "use SerialExecutor for single-client execution"
            )
        if tolerance < 0:
            raise ValueError(f"tolerance must be non-negative, got {tolerance}")
        self.stack_size = stack_size
        self.tolerance = tolerance
        self._drift_checked = False

    def execute_round(
        self,
        global_state: dict[str, np.ndarray],
        participants: Sequence[int],
        payload: dict | None = None,
        faults: "Mapping[int, PartyFault] | None" = None,
    ) -> RoundExecution:
        if payload is None:
            payload = self.algorithm.broadcast_payload()
        channel = self.channel
        keys: list[str] | None = None
        reference: np.ndarray | None = None
        if channel is not None and not channel.codec.lossless:
            keys = sorted(global_state)
            reference = state_dict_to_vector(global_state, keys=keys)
        execution = RoundExecution()
        max_retries = self._max_retries()
        staged_rng: dict[int, dict] = {}
        results: dict[int, object] = {}
        groups, serial_parties = self._plan(participants, faults)
        for group in groups:
            done = self._run_stack(
                group, global_state, payload, reference, keys,
                staged_rng, results,
            )
            if not done:
                if execution.fallback is None:
                    execution.fallback = "stacked:serial"
                serial_parties = serial_parties + group
        for party in serial_parties:
            result = self._resolve_party(
                party, global_state, payload, faults, reference, keys,
                execution, staged_rng, max_retries,
            )
            if result is not None:
                results[party] = result
        # Participant order, regardless of stacked/serial processing order.
        for party in participants:
            if party in results:
                execution.results.append(results[party])
                execution.completed.append(party)
        for party, rng_state in staged_rng.items():
            self.clients[party].rng.bit_generator.state = rng_state
        return execution

    def _plan(self, participants, faults):
        """Split the round into stackable groups and serial leftovers.

        A party is stackable when its local work is shape-static: SGD
        without DP, no armed crash fault, and a sample count that is a
        positive multiple of the batch size (no ragged last batch).
        Stackable parties are grouped by (epochs, num_samples) and
        chunked to ``stack_size`` in participant order; singleton chunks
        gain nothing from batching and stay serial.
        """
        config = self.config
        config_ok = config.optimizer == "sgd" and config.dp is None
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
            epochs = (
                client.local_epochs
                if client.local_epochs is not None
                else config.local_epochs
            )
            by_key.setdefault((epochs, samples), []).append(party)
        groups: list[list[int]] = []
        for parties in by_key.values():
            for start in range(0, len(parties), self.stack_size):
                chunk = parties[start : start + self.stack_size]
                if len(chunk) < 2:
                    serial.extend(chunk)
                else:
                    groups.append(chunk)
        return groups, serial

    def _run_stack(
        self, group, global_state, payload, reference, keys, staged_rng, results
    ) -> bool:
        """Try one group end to end; False degrades the group to serial.

        Transactional like the serial path: on any failure every group
        member's generator is back at its pre-group snapshot and nothing
        is staged, so the serial rerun (or a raised error) sees clean
        state.  :class:`StackedDriftError` propagates — a broken
        exactness contract must not be silently papered over.
        """
        clients = [self.clients[party] for party in group]
        snapshots = [client.rng.bit_generator.state for client in clients]

        def restore():
            for client, snapshot in zip(clients, snapshots):
                client.rng.bit_generator.state = snapshot
            for party in group:
                staged_rng.pop(party, None)
                results.pop(party, None)

        records = self._record_group(group, global_state, payload)
        if records is None:
            restore()
            return False
        try:
            self._train_stack(records)
            if not self._drift_checked:
                self._check_drift(records, snapshots)
                self._drift_checked = True
            self._replay_group(
                records, snapshots, global_state, payload, reference, keys,
                staged_rng, results,
            )
        except StackedDriftError:
            restore()
            raise
        except Exception:
            # CaptureError (model the compiler rejects — memoized, so
            # later rounds skip the attempt) or anything unexpected: the
            # serial rerun either succeeds or surfaces the real error
            # through the retry machinery.
            restore()
            return False
        return True

    def _record_group(self, group, global_state, payload):
        """Phase 1: intercept each party's training call (no rng draws)."""

        def recording_hook(
            model, client, config, proximal_mu, anchor, correction, correction_mode
        ):
            raise _StackDeferred(
                _StackCall(
                    model.state_dict(), proximal_mu, anchor, correction,
                    correction_mode,
                )
            )

        records = []
        for party in group:
            client = self.clients[party]
            try:
                with local_training_hook(recording_hook):
                    self.algorithm.local_update(
                        self.model, global_state, client, self.config, payload
                    )
            except _StackDeferred as deferred:
                records.append(_StackRecord(party, client, deferred.call))
                continue
            except Exception:
                return None
            # local_update finished without calling run_local_training —
            # an algorithm shape the two-phase protocol cannot batch.
            return None
        first = records[0].call
        for record in records[1:]:
            call = record.call
            if (
                call.proximal_mu != first.proximal_mu
                or (call.anchor is None) != (first.anchor is None)
                or (call.correction is None) != (first.correction is None)
                or call.correction_mode != first.correction_mode
            ):
                return None
        return records

    def _train_stack(self, records) -> None:
        """Phase 2: run the group's local SGD as one batched program."""
        config = self.config
        model = self.model
        stack = len(records)
        first_client = records[0].client
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
        for k, record in enumerate(records):
            state0 = record.call.state0
            for buffer, key in zip(stacks, param_keys):
                if buffer is not None:
                    buffer[k] = state0[key]
        call = records[0].call
        optimizer = StackedSGD(
            stacks,
            lr=config.lr,
            momentum=config.momentum,
            weight_decay=config.weight_decay,
            proximal_mu=call.proximal_mu,
        )
        if call.anchor is not None:
            optimizer.set_anchor(
                [
                    np.stack([record.call.anchor[i] for record in records])
                    for i in range(len(param_keys))
                ]
            )
        if call.correction is not None:
            optimizer.set_correction(
                [
                    np.stack([record.call.correction[i] for record in records])
                    for i in range(len(param_keys))
                ],
                mode=call.correction_mode,
            )
        epochs = (
            first_client.local_epochs
            if first_client.local_epochs is not None
            else config.local_epochs
        )
        samples = first_client.num_samples
        steps_per_epoch = samples // batch
        # All shuffle orders are drawn up front, per client in epoch
        # order — exactly the sequence the serial DataLoader consumes
        # (training itself draws nothing), so each private generator ends
        # the phase in its serial post-training state.
        orders = []
        data = []
        for record in records:
            client_orders = []
            for _ in range(epochs):
                order = np.arange(samples)
                record.client.rng.shuffle(order)
                client_orders.append(order)
            orders.append(client_orders)
            data.append(
                (record.client.dataset.features, record.client.dataset.labels)
            )
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
        for k, record in enumerate(records):
            state = dict(record.call.state0)
            for buffer, key in zip(stacks, param_keys):
                if buffer is not None:
                    state[key] = buffer[k].copy()
            record.result = LocalTrainingResult(
                state=state,
                num_steps=steps,
                num_samples=samples,
                mean_loss=totals[k] / max(steps, 1),
            )
            record.post_rng = record.client.rng.bit_generator.state

    def _check_drift(self, records, snapshots) -> None:
        """Re-run the group serially and compare (first group per run).

        ``tolerance == 0.0`` demands bitwise identity; a positive
        tolerance bounds the max-abs per-element deviation instead.
        """
        model = self.model
        tolerance = self.tolerance
        for record, snapshot in zip(records, snapshots):
            client = record.client
            client.rng.bit_generator.state = snapshot
            model.load_state_dict(record.call.state0)
            call = record.call
            serial = run_local_training(
                model, client, self.config,
                proximal_mu=call.proximal_mu,
                anchor=call.anchor,
                correction=call.correction,
                correction_mode=call.correction_mode,
            )
            client.rng.bit_generator.state = record.post_rng
            stacked = record.result
            if serial.num_steps != stacked.num_steps:
                raise StackedDriftError(
                    f"stacked replay ran {stacked.num_steps} steps for party "
                    f"{record.party} where serial ran {serial.num_steps}"
                )
            drift = 0.0
            for key, reference in serial.state.items():
                reference = np.asarray(reference)
                mine = np.asarray(stacked.state[key])
                if np.array_equal(reference, mine):
                    continue
                if tolerance == 0.0:
                    raise StackedDriftError(
                        f"stacked replay diverged from serial on party "
                        f"{record.party} key {key!r} with tolerance 0.0; "
                        "this host's batched GEMM is not bitwise exact — "
                        "pass --stacked-tolerance to accept bounded drift"
                    )
                drift = max(
                    drift,
                    float(
                        np.max(
                            np.abs(
                                reference.astype(np.float64)
                                - mine.astype(np.float64)
                            )
                        )
                    ),
                )
            if drift > tolerance:
                raise StackedDriftError(
                    f"stacked replay drifted {drift:.3e} from serial on "
                    f"party {record.party}, above tolerance {tolerance:.3e}"
                )

    def _replay_group(
        self, records, snapshots, global_state, payload, reference, keys,
        staged_rng, results,
    ) -> None:
        """Phase 3: feed results back through each ``local_update``."""
        for record, snapshot in zip(records, snapshots):
            client = record.client
            outcome = record.result

            def replay_hook(
                model, hook_client, config, proximal_mu, anchor, correction,
                correction_mode,
            ):
                model.load_state_dict(outcome.state)
                return outcome

            # Post-training state first: anything after the training call
            # (SCAFFOLD option-1 full-batch pass, codec draws) must see
            # the same generator sequence the serial path would.
            client.rng.bit_generator.state = record.post_rng
            with local_training_hook(replay_hook):
                result = self.algorithm.local_update(
                    self.model, global_state, client, self.config, payload
                )
            if self.channel is not None:
                process_upload(
                    self.channel, self.algorithm, result, client, reference, keys
                )
            staged_rng[record.party] = client.rng.bit_generator.state
            client.rng.bit_generator.state = snapshot
            results[record.party] = result

    def __repr__(self) -> str:
        return (
            f"StackedExecutor(stack_size={self.stack_size}, "
            f"tolerance={self.tolerance})"
        )


#: executor names make_executor accepts (mirrors FederatedConfig validation)
EXECUTOR_NAMES = ("auto", "serial", "parallel", "stacked")


def make_executor(config: "FederatedConfig") -> ClientExecutor:
    """Build the executor a :class:`FederatedConfig` asks for.

    ``executor="serial"``, ``"parallel"`` and ``"stacked"`` are explicit;
    ``"auto"`` picks :class:`ParallelExecutor` when ``num_workers >= 2``,
    the platform can fork, *and* more than one CPU is actually available
    — forked workers time-slicing one core cost fork/IPC overhead for
    zero concurrency, so a single-CPU host degrades to
    :class:`SerialExecutor` with a one-line warning and the reason
    recorded in each round's ``fallback`` field.  An explicit
    ``executor="parallel"`` still forces the pool.  Unknown names raise
    ``ValueError`` — configs are typically validated upstream, but
    hand-built ones must not silently degrade to serial.
    """
    if config.executor not in EXECUTOR_NAMES:
        raise ValueError(
            f"unknown executor {config.executor!r}; expected one of "
            f"{EXECUTOR_NAMES}"
        )
    if config.executor == "stacked":
        return StackedExecutor(
            stack_size=config.stack_size, tolerance=config.stacked_tolerance
        )
    wants_parallel = config.executor == "parallel" or (
        config.executor == "auto" and config.num_workers >= 2
    )
    if not wants_parallel:
        return SerialExecutor()
    if config.executor == "auto" and not fork_available():
        return SerialExecutor()
    if config.executor == "auto" and _effective_cpu_count() <= 1:
        warnings.warn(
            f"executor='auto' found a single-CPU host; running "
            f"{config.num_workers} requested workers serially "
            "(pass executor='parallel' to force a pool)",
            RuntimeWarning,
            stacklevel=2,
        )
        return SerialExecutor(note="serial:single-cpu")
    return ParallelExecutor(max(config.num_workers, 2))
