"""Virtual-time asynchronous federation engine (FedBuff-style).

The synchronous :class:`~repro.federated.server.FederatedServer` is a
barrier: every round waits for the slowest sampled party.  Deployed
cross-device systems instead keep a *cohort* of clients in flight,
apply updates as soon as a buffer of ``M`` uploads fills (FedBuff), and
let stragglers' deltas land in later server steps with recorded
staleness.  This module simulates that server on a **virtual clock**:

- a discrete-event scheduler over a heap of ``(virtual_time, seq,
  event)`` — no wall-clock reads anywhere, so the same spec seed yields
  the same event order, history and final model in any process;
- latency comes from the existing :class:`~repro.federated.systems.
  SystemModel` (per-party compute speed and bandwidth) and
  :class:`~repro.federated.faults.FaultModel` (straggler slowdowns,
  dropouts, mid-training crashes), both already pure seeded draws;
- client *compute* runs through the ordinary
  :class:`~repro.federated.executor.ClientExecutor` backends — each
  dispatch group is one ``execute_round`` batch, so serial and stacked
  execution plug in underneath unchanged;
- parties come from a :class:`~repro.federated.population.
  ClientPopulation`: checked out at dispatch, released (state spilled
  cold) when their upload lands or they fail — memory stays
  O(cohort), not O(population).

Scheduler invariants
--------------------
1. ``outstanding + len(buffer) <= cohort`` whenever an explicit
   ``buffer_size`` is set (fault over-sampling may push a *barrier*
   dispatch group past the nominal cohort, exactly like the sync
   server's over-sampled rounds); failures are replaced only at flush
   boundaries, so a server step is never silently backfilled.
2. In buffered mode a server step (flush) happens when the buffer
   reaches ``M = buffer_size`` **or** the last in-flight client
   resolves — whichever comes first; the second clause guarantees
   progress under heavy dropout.  In barrier mode (``buffer_size``
   unset) a flush waits for the *entire* dispatch group, so the
   survivors aggregate when the slowest arrives (all-failure rounds
   record NaN) — the synchronous round, replayed on the virtual clock.
3. After each flush the engine dispatches ``cohort - outstanding``
   freshly sampled parties at the current clock, so every dispatch
   group trains from one well-defined model version.

Staleness semantics
-------------------
An update's staleness is the number of server steps committed between
its dispatch and its application.  A flush whose updates are *all*
staleness-0 (every barrier flush, and the common async case) aggregates
through the algorithm's own :meth:`aggregate` over absolute client
states — which is why ``buffer == cohort`` reproduces the synchronous
server **bitwise**.  A flush that mixes model versions cannot (the
absolute states disagree about everything the missed steps changed);
it applies a staleness-weighted delta average instead::

    global += server_lr * sum_i w_i * (state_i - dispatch_version_i)
    w_i  proportional to  num_samples_i * (1 + staleness_i) ** -a

with ``a = config.staleness_exponent`` (0 = pure sample weighting;
FedBuff's paper uses 0.5).  The delta path is defined for the
FedAvg-family (plain weighted averaging; FedAvg and FedProx); engines
configured so mixed flushes are possible reject other algorithms
up front rather than silently dropping their server-side logic.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.comm import CommChannel
from repro.federated.config import FederatedConfig
from repro.federated.evaluation import evaluate as evaluate_model
from repro.federated.executor import make_executor
from repro.federated.faults import NO_FAULT, FaultModel
from repro.federated.history import History, RoundRecord
from repro.federated.population import ClientPopulation
from repro.federated.sampling import sample_clients
from repro.federated.systems import SystemModel

#: algorithms whose aggregation is plain weighted averaging, for which
#: the mixed-staleness delta path is exact in semantics
DELTA_SAFE_ALGORITHMS = ("fedavg", "fedprox")


@dataclass(frozen=True)
class ClientUpdate:
    """A client's upload arrives at the server."""

    party: int
    slot: int


@dataclass(frozen=True)
class ClientFailure:
    """An in-flight client is lost (mid-training crash)."""

    party: int
    slot: int
    reason: str


class _DispatchGroup:
    """One batch of clients dispatched against one model version."""

    __slots__ = ("seq", "server_step", "reference")

    def __init__(self, seq: int, server_step: int, reference: dict):
        self.seq = seq
        self.server_step = server_step
        #: the global state this group trained from (delta base); holds a
        #: reference to the server's dict — aggregation replaces rather
        #: than mutates it, so no copy is needed
        self.reference = reference


class _InFlight:
    """Everything the server will need when this client's event fires."""

    __slots__ = ("party", "group", "index", "result", "slowdown")

    def __init__(self, party, group, index, result, slowdown):
        self.party = party
        self.group = group
        #: position inside the dispatch group (participant order)
        self.index = index
        self.result = result
        self.slowdown = slowdown


class AsyncFederation:
    """Buffered-asynchronous federated training on a virtual clock.

    Parameters mirror :class:`~repro.federated.server.FederatedServer`
    with ``clients`` generalized to a :class:`ClientPopulation` and a
    :class:`SystemModel` supplying the latency axis.  Cohort size comes
    from ``config.sample_per_round`` (falling back to ``sample_fraction
    * population``), buffer size from ``config.buffer_size`` (falling
    back to the cohort — a barrier).
    """

    def __init__(
        self,
        model,
        algorithm,
        population: ClientPopulation,
        config: FederatedConfig,
        test_dataset=None,
        executor=None,
        channel=None,
        system: SystemModel | None = None,
    ):
        self.model = model
        self.algorithm = algorithm
        self.population = population
        self.config = config
        self.test_dataset = test_dataset
        self.system = system if system is not None else SystemModel()
        self.global_state = model.state_dict()
        self.history = History()
        self._sampler_rng = np.random.default_rng(config.seed)
        self.fault_model = FaultModel.from_config(config)
        if config.sample_per_round is not None:
            self.cohort = config.sample_per_round
        else:
            self.cohort = max(
                1, int(round(config.sample_fraction * population.size))
            )
        if self.cohort > population.size:
            raise ValueError(
                f"cohort ({self.cohort}) exceeds the population "
                f"({population.size}); lower sample_per_round"
            )
        #: barrier mode (no explicit buffer): a server step waits for the
        #: whole dispatch group, including fault-driven over-sampling
        #: beyond the nominal cohort — exactly the sync server's round.
        self._barrier = config.buffer_size is None
        self.buffer_size = (
            config.buffer_size if config.buffer_size is not None else self.cohort
        )
        if self.buffer_size > self.cohort:
            raise ValueError(
                f"buffer_size ({self.buffer_size}) cannot exceed the cohort "
                f"({self.cohort})"
            )
        if (
            not self._barrier
            and algorithm.name not in DELTA_SAFE_ALGORITHMS
            and (self.buffer_size < self.cohort or self.fault_model is not None)
        ):
            raise ValueError(
                f"aggregation='async' with an explicit buffer_size can mix "
                f"model versions, which is only defined for plain weighted "
                f"averaging ({DELTA_SAFE_ALGORITHMS}); {algorithm.name!r} "
                "has server-side aggregation logic the delta path would "
                "silently drop.  Omit buffer_size (a barrier) or use a "
                "FedAvg-family algorithm."
            )
        self._view = population.client_view()
        algorithm.prepare(model, self._view, config)
        self.channel = (
            channel if channel is not None else CommChannel.from_config(config)
        )
        self._comm_keys = sorted(self.global_state)
        self.executor = executor if executor is not None else make_executor(config)
        self.executor.setup(model, algorithm, self._view, config, channel=self.channel)

        # -- scheduler state -------------------------------------------
        self._clock = 0.0
        self._event_seq = 0
        self._group_seq = 0
        self._events: list[tuple[float, int, object]] = []
        self._inflight: dict[int, _InFlight] = {}
        self._slot_seq = 0
        self._outstanding = 0
        self._buffer: list[_InFlight] = []
        self._flushes = 0
        # per-epoch (since last flush) accounting for the RoundRecord
        self._epoch_sampled: list[int] = []
        self._epoch_dropped: list[int] = []
        self._epoch_drop_reasons: list[str] = []
        self._epoch_bytes_down = 0
        self._epoch_fallback: str | None = None

    @property
    def virtual_time(self) -> float:
        """Current reading of the virtual clock (seconds)."""
        return self._clock

    # ------------------------------------------------------------------
    # Event plumbing
    # ------------------------------------------------------------------
    def _schedule(self, time: float, event) -> None:
        heapq.heappush(self._events, (time, self._event_seq, event))
        self._event_seq += 1

    def _handle_client_update(self, event: ClientUpdate) -> None:
        entry = self._inflight.pop(event.slot)
        self._outstanding -= 1
        self.population.release(event.party)
        self._buffer.append(entry)

    def _handle_client_failure(self, event: ClientFailure) -> None:
        self._inflight.pop(event.slot)
        self._outstanding -= 1
        self.population.release(event.party)
        self._epoch_dropped.append(event.party)
        self._epoch_drop_reasons.append(event.reason)

    #: event class -> handler; the one table :meth:`fit` dispatches through
    _HANDLERS = {
        ClientUpdate: _handle_client_update,
        ClientFailure: _handle_client_failure,
    }

    # ------------------------------------------------------------------
    # Dispatch: sample, execute (compute happens now; arrival is later)
    # ------------------------------------------------------------------
    def _sample_group(self, count: int) -> list[int]:
        """Draw a dispatch group, over-sampling under active faults.

        Mirrors ``FederatedServer._sample_round``: with an expected drop
        fraction ``d``, dispatching ``count / (1 - d)`` keeps expected
        completions at ``count`` (the adjustment applies to the count
        rather than the fraction — same math, absolute form).
        """
        size = self.population.size
        if (
            self.fault_model is not None
            and self.config.over_sample
            and count < size
        ):
            drop = self.fault_model.expected_drop_rate(self.config.deadline)
            if drop > 0.0:
                count = min(size, max(1, int(round(count / (1.0 - drop)))))
        return [int(p) for p in sample_clients(size, count, self._sampler_rng)]

    def _party_duration(self, party: int, steps: int, up_bytes: int,
                        down_bytes: int, slowdown: float) -> float:
        """Seconds from dispatch to upload arrival for one client."""
        compute = steps * self.system.step_time / self.system._speed(party)
        compute *= slowdown
        transfer = (down_bytes + up_bytes) / self.system._bandwidth(party)
        return compute + transfer + self.system.server_overhead

    def _dispatch(self, count: int) -> None:
        """Sample ``count`` parties, run their local rounds against the
        current model version, and schedule their arrivals/failures."""
        if count <= 0:
            return
        sampled = self._sample_group(count)
        self._epoch_sampled.extend(sampled)
        step = self._flushes
        faults = (
            self.fault_model.round_faults(step, sampled)
            if self.fault_model is not None
            else {}
        )
        deadline = self.config.deadline
        participants: list[int] = []
        dispatch_faults = {}
        for party in sampled:
            fault = faults.get(party, NO_FAULT)
            if fault.dropped:
                self._epoch_dropped.append(party)
                self._epoch_drop_reasons.append("dropout")
                continue
            if deadline is not None and fault.slowdown > deadline:
                self._epoch_dropped.append(party)
                self._epoch_drop_reasons.append("deadline")
                continue
            participants.append(party)
            if not fault.ok:
                dispatch_faults[party] = fault
        for party in participants:
            self.population.checkout(party)
        extras = self.algorithm.broadcast_payload()
        broadcast_state, extras, down_per_client = self.channel.broadcast(
            self.global_state, extras, self._comm_keys
        )
        self._epoch_bytes_down += down_per_client * len(sampled)
        execution = self.executor.execute_round(
            broadcast_state, participants, extras,
            faults=dispatch_faults or None,
        )
        if execution.fallback is not None and self._epoch_fallback is None:
            self._epoch_fallback = execution.fallback
        # Persistent per-party state commits at compute time (the client
        # finished training now, in virtual time; only its *upload* is
        # still traveling), in participant order like the sync server.
        for party, result in zip(execution.completed, execution.results):
            self.algorithm.commit(self._view[party], result)
        group = _DispatchGroup(self._group_seq, step, self.global_state)
        self._group_seq += 1
        completed = dict(zip(execution.completed, execution.results))
        for index, party in enumerate(participants):
            fault = dispatch_faults.get(party, NO_FAULT)
            slot = self._slot_seq
            self._slot_seq += 1
            if party in completed:
                result = completed[party]
                entry = _InFlight(party, group, index, result, fault.slowdown)
                self._inflight[slot] = entry
                self._outstanding += 1
                duration = self._party_duration(
                    party, result.num_steps, result.upload_nbytes,
                    down_per_client, fault.slowdown,
                )
                self._schedule(self._clock + duration, ClientUpdate(party, slot))
            elif party in execution.failed:
                # Mid-training crash: the party occupies its slot for the
                # steps it survived, then is lost (no upload in flight).
                steps_done = fault.crash_after_steps or 0
                self._inflight[slot] = _InFlight(
                    party, group, index, None, fault.slowdown
                )
                self._outstanding += 1
                duration = self._party_duration(
                    party, steps_done, 0, down_per_client, fault.slowdown
                )
                self._schedule(
                    self._clock + duration,
                    ClientFailure(party, slot, execution.failed[party]),
                )
            else:  # pragma: no cover - executor contract: completed or failed
                self.population.release(party)

    # ------------------------------------------------------------------
    # Flush: one server step
    # ------------------------------------------------------------------
    def _aggregate_delta(self, entries: list[_InFlight]) -> dict:
        """Staleness-weighted delta average (the mixed-version path)."""
        exponent = self.config.staleness_exponent
        weights = np.array(
            [
                entry.result.num_samples
                * (1.0 + (self._flushes - entry.group.server_step)) ** -exponent
                for entry in entries
            ],
            dtype=np.float64,
        )
        weights = weights / weights.sum()
        server_lr = self.config.server_lr
        new_state: dict[str, np.ndarray] = {}
        for key in self.algorithm.all_keys:
            base = np.asarray(self.global_state[key], dtype=np.float64)
            update = np.zeros_like(base)
            for weight, entry in zip(weights, entries):
                delta = np.asarray(
                    entry.result.state[key], dtype=np.float64
                ) - np.asarray(entry.group.reference[key], dtype=np.float64)
                update += weight * delta
            merged = base + server_lr * update
            new_state[key] = merged.astype(
                np.asarray(self.global_state[key]).dtype
            )
        return new_state

    def _flush(self) -> RoundRecord:
        """Apply the buffered updates as one server step and record it."""
        entries = sorted(self._buffer, key=lambda e: (e.group.seq, e.index))
        self._buffer = []
        staleness = [
            self._flushes - entry.group.server_step for entry in entries
        ]
        results = [entry.result for entry in entries]
        if entries:
            if all(s == 0 for s in staleness):
                # Single model version: the algorithm's own aggregation
                # over absolute states — bitwise the sync server's path.
                self.global_state = self.algorithm.aggregate(
                    self.global_state, results, self.config
                )
            else:
                self.global_state = self._aggregate_delta(entries)
        self._flushes += 1
        accuracy = None
        if self.test_dataset is not None and (
            self._flushes % self.config.eval_every == 0
        ):
            accuracy = self.evaluate()
        client_bytes_up = [r.upload_nbytes for r in results]
        bytes_up = sum(client_bytes_up)
        record = RoundRecord(
            round_index=self._flushes - 1,
            test_accuracy=accuracy,
            train_loss=(
                float(np.mean([r.mean_loss for r in results]))
                if results
                else float("nan")
            ),
            participants=[entry.party for entry in entries],
            bytes_communicated=self._epoch_bytes_down + bytes_up,
            client_steps=[r.num_steps for r in results],
            bytes_down=self._epoch_bytes_down,
            bytes_up=bytes_up,
            client_bytes_up=client_bytes_up,
            sampled=self._epoch_sampled,
            dropped=self._epoch_dropped,
            drop_reasons=self._epoch_drop_reasons,
            slowdowns=(
                [entry.slowdown for entry in entries]
                if self.fault_model is not None
                else []
            ),
            fallback=self._epoch_fallback,
            virtual_time=self._clock,
            staleness=staleness,
            buffer_flush=len(entries),
        )
        self.history.append(record)
        self._epoch_sampled = []
        self._epoch_dropped = []
        self._epoch_drop_reasons = []
        self._epoch_bytes_down = 0
        self._epoch_fallback = None
        return record

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def _replenish(self, target: int) -> None:
        """Top the cohort back up; flush-through if everyone drops."""
        while self._flushes < target:
            self._dispatch(self.cohort - self._outstanding)
            if self._outstanding > 0:
                return
            # Every dispatched party dropped before compute: the sync
            # server records such a round as NaN; so does the engine.
            self._flush()

    def fit(self, num_rounds: int | None = None) -> History:
        """Run until ``num_rounds`` server steps (flushes) committed."""
        rounds = (
            num_rounds if num_rounds is not None else self.config.num_rounds
        )
        target = self._flushes + rounds
        self._replenish(target)
        while self._flushes < target and self._events:
            time, _seq, event = heapq.heappop(self._events)
            self._clock = time
            self._HANDLERS[type(event)](self, event)
            # Barrier mode waits for the whole dispatch group — which can
            # exceed the nominal cohort under fault over-sampling — so it
            # aggregates exactly the sync round's survivors.  Buffered
            # mode flushes at M arrivals (or when everything in flight
            # has resolved, which prevents deadlock on heavy dropout).
            if (
                not self._barrier and len(self._buffer) >= self.buffer_size
            ) or self._outstanding == 0:
                self._flush()
                self._replenish(target)
        return self.history

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

    def __enter__(self) -> "AsyncFederation":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
