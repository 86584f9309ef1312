"""Virtual-time asynchronous federation engine (FedBuff-style).

The synchronous :class:`~repro.federated.server.FederatedServer` is a
barrier: every round waits for the slowest sampled party.  Deployed
cross-device systems instead keep a *cohort* of clients in flight,
apply updates as soon as a buffer of ``M`` uploads fills (FedBuff), and
let stragglers' deltas land in later server steps with recorded
staleness.  The round itself is :class:`~repro.federated.server.
Federation`'s (``_sample`` → ``_dispatch`` → ``_server_step``); this
module is the *arrival policy* between its two halves, simulated on a
**virtual clock**:

- a discrete-event scheduler over a heap of ``(virtual_time, seq,
  event)`` — no wall-clock reads anywhere, so the same spec seed yields
  the same event order, history and final model in any process;
- latency is :meth:`SystemModel.party_duration
  <repro.federated.systems.SystemModel.party_duration>` (per-party
  compute speed and bandwidth; the one party clock the synchronous
  replay takes its round maximum of) under the
  :class:`~repro.federated.faults.FaultModel` (straggler slowdowns,
  dropouts, mid-training crashes), a pure seeded draw;
- client *compute* happens at dispatch (one ``Federation._dispatch``
  per group, so serial and stacked execution plug in underneath
  unchanged); only the *upload* travels, arriving as an event;
- parties come from a :class:`~repro.federated.population.
  ClientPopulation`: checked out at dispatch, released (state spilled
  cold) when their upload lands or they fail — memory stays
  O(cohort), not O(population).

Scheduler invariants
--------------------
1. The engine only ever tops the in-flight set *up to* ``cohort``
   (fault over-sampling may size one dispatch group past the nominal
   cohort, as it does a synchronous round); failures are replaced only
   at flush boundaries, so a server step is never silently backfilled.
2. In buffered mode a server step (flush) happens when the buffer
   reaches ``M = buffer_size`` **or** the last in-flight client
   resolves — whichever comes first; the second clause guarantees
   progress under heavy dropout.  In barrier mode (``buffer_size``
   unset) a flush waits for the *entire* dispatch group, so the
   survivors aggregate when the slowest arrives (all-failure rounds
   record NaN) — the synchronous round, replayed on the virtual clock.
3. After each flush the engine dispatches ``cohort - outstanding``
   freshly sampled parties at the current clock, so every dispatch
   group trains from one well-defined model version.  With nothing in
   flight the group is sized from the configured participation itself
   (``sample_fraction``, or ``sample_per_round`` of the population) —
   the server's own ``_sample`` call, so a barrier run draws the
   synchronous server's parties.

Staleness semantics
-------------------
An update's staleness is the number of server steps committed between
its dispatch and its application.  A flush whose updates are *all*
staleness-0 (every barrier flush, and the common async case) aggregates
through the algorithm's own :meth:`aggregate` over absolute client
states — which is why a barrier run reproduces the synchronous server
**bitwise** (``test_barrier_equals_server`` holds the two to equal
histories, weights, generators and per-party state across algorithms,
codecs, faults, samplers and executors).  A flush that mixes model
versions cannot (the absolute states disagree about everything the
missed steps changed); it applies a staleness-weighted delta average
instead::

    global += sum_i w_i * (state_i - dispatch_version_i)
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

from repro.federated.aggregation import subtract_states, weighted_average_states
from repro.federated.config import FederatedConfig
from repro.federated.faults import NO_FAULT
from repro.federated.history import History, RoundRecord
from repro.federated.population import ClientPopulation, ClientView
from repro.federated.server import Federation
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


class AsyncFederation(Federation):
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
        self.population = population
        self.system = system if system is not None else SystemModel()
        per_round = config.sample_per_round
        self.cohort = (
            per_round
            if per_round is not None
            else max(1, int(round(config.sample_fraction * population.size)))
        )
        #: what a group dispatched into an empty engine asks ``_sample``
        #: for — the configured participation itself, not the rounded cohort
        self._fraction = (
            config.sample_fraction
            if per_round is None
            else per_round / population.size
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
        parties = population.client_view()
        if config.sampler == "stratified" and isinstance(parties, ClientView):
            raise ValueError(
                "sampler='stratified' needs every party's label counts, which "
                f"a lazy population ({type(population).__name__}) never "
                "materializes; use sampler='uniform'"
            )
        super().__init__(
            model, algorithm, parties, config, test_dataset, executor, channel
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
        # -- scheduler state -------------------------------------------
        self._clock = 0.0
        self._group_seq = 0
        #: heap of ``(virtual_time, slot, event)``; a slot is issued per
        #: dispatched client in dispatch order, so it breaks time ties
        self._events: list[tuple[float, int, object]] = []
        self._slot_seq = 0
        #: slot -> the dispatched clients whose event has not fired yet
        self._inflight: dict[int, _InFlight] = {}
        self._buffer: list[_InFlight] = []

    @property
    def virtual_time(self) -> float:
        """Current reading of the virtual clock (seconds)."""
        return self._clock

    # ``benchmarks/e2e/tracing.TARGETS`` resolves ``evaluate`` in this
    # class's own ``__dict__`` (hit on async runs, zero on sync ones).
    evaluate = Federation.evaluate

    # ------------------------------------------------------------------
    # Event handlers
    # ------------------------------------------------------------------
    def _handle_client_update(self, event: ClientUpdate) -> None:
        self._buffer.append(self._inflight.pop(event.slot))
        self.population.release(event.party)

    def _handle_client_failure(self, event: ClientFailure) -> None:
        self._inflight.pop(event.slot)
        self.population.release(event.party)
        self._epoch.drop(event.party, event.reason)

    #: event class -> handler; the one table :meth:`fit` dispatches through
    _HANDLERS = {
        ClientUpdate: _handle_client_update,
        ClientFailure: _handle_client_failure,
    }

    # ------------------------------------------------------------------
    # Dispatch: compute happens now; arrival is later
    # ------------------------------------------------------------------
    def _checkout(self, participants: list[int]) -> None:
        for party in participants:
            self.population.checkout(party)

    def _dispatch_group(self, fraction: float) -> None:
        """Sample ``fraction`` of the population, run the group's local
        rounds against the current model version (persistent per-party
        state commits now — the client finished training; only its
        upload is still traveling) and schedule arrivals / failures."""
        step = len(self.history)
        participants, faults, execution, down_per_client = self._dispatch(
            step, self._sample(fraction)
        )
        group = _DispatchGroup(self._group_seq, step, self.global_state)
        self._group_seq += 1
        completed = dict(zip(execution.completed, execution.results))
        for index, party in enumerate(participants):
            fault = faults.get(party, NO_FAULT)
            result = completed.get(party)
            slot = self._slot_seq
            self._slot_seq += 1
            self._inflight[slot] = _InFlight(
                party, group, index, result, fault.slowdown
            )
            if result is not None:
                event = ClientUpdate(party, slot)
                steps, up_bytes = result.num_steps, result.upload_nbytes
            else:
                # Mid-training crash: the party occupies its slot for the
                # steps it survived, then is lost (no upload in flight).
                event = ClientFailure(party, slot, execution.failed[party])
                steps, up_bytes = fault.crash_after_steps or 0, 0
            duration = self.system.party_duration(
                party, steps, down_per_client, up_bytes, fault.slowdown
            )
            heapq.heappush(self._events, (self._clock + duration, slot, event))

    # ------------------------------------------------------------------
    # Flush: one server step
    # ------------------------------------------------------------------
    def _aggregate_delta(self, entries: list[_InFlight], staleness: list[int]) -> dict:
        """Staleness-weighted delta average (the mixed-version path)."""
        exponent = self.config.staleness_exponent
        keys = self.algorithm.all_keys
        deltas = [
            subtract_states(entry.result.state, entry.group.reference, keys)
            for entry in entries
        ]
        weights = [
            entry.result.num_samples * (1.0 + stale) ** -exponent
            for entry, stale in zip(entries, staleness)
        ]
        update = weighted_average_states(deltas, weights)
        new_state: dict[str, np.ndarray] = {}
        for key in keys:
            base = np.asarray(self.global_state[key])
            new_state[key] = (base.astype(np.float64) + update[key]).astype(base.dtype)
        return new_state

    def _flush(self) -> RoundRecord:
        """Apply the buffered updates as one server step and record it."""
        entries = sorted(self._buffer, key=lambda e: (e.group.seq, e.index))
        self._buffer = []
        step = len(self.history)
        staleness = [step - entry.group.server_step for entry in entries]
        # A single model version goes through the algorithm's own
        # aggregation over absolute states — bitwise the sync server's.
        mixed = self._aggregate_delta(entries, staleness) if any(staleness) else None
        return self._server_step(
            step,
            [entry.party for entry in entries],
            [entry.result for entry in entries],
            [entry.slowdown for entry in entries],
            mixed,
            virtual_time=self._clock,
            staleness=staleness,
            buffer_flush=len(entries),
        )

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def _replenish(self, target: int) -> None:
        """Top the cohort back up; flush-through if everyone drops."""
        while len(self.history) < target:
            if not self._inflight:
                self._dispatch_group(self._fraction)
            elif len(self._inflight) < self.cohort:
                self._dispatch_group(
                    (self.cohort - len(self._inflight)) / self.population.size
                )
            if self._inflight:
                return
            # Every dispatched party dropped before compute: the sync
            # server records such a round as NaN; so does the engine.
            self._flush()

    def fit(self, num_rounds: int | None = None) -> History:
        """Run until ``num_rounds`` server steps (flushes) committed."""
        rounds = (
            num_rounds if num_rounds is not None else self.config.num_rounds
        )
        target = len(self.history) + rounds
        self._replenish(target)
        while len(self.history) < target and self._events:
            self._clock, _slot, event = heapq.heappop(self._events)
            self._HANDLERS[type(event)](self, event)
            # Barrier mode waits for the whole dispatch group — which can
            # exceed the nominal cohort under fault over-sampling — so it
            # aggregates exactly the sync round's survivors.  Buffered
            # mode flushes at M arrivals (or when everything in flight
            # has resolved, which prevents deadlock on heavy dropout).
            if (
                not self._barrier and len(self._buffer) >= self.buffer_size
            ) or not self._inflight:
                self._flush()
                self._replenish(target)
        return self.history
