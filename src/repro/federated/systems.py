"""Wall-clock system model: turn round histories into time-to-accuracy.

The paper evaluates accuracy per *communication round*; a deployed
federation cares about accuracy per *unit of wall-clock time*, where a
round costs

    max over participants of (compute time + transfer time)

because the server waits for the slowest sampled party (synchronous FL,
as in Figure 1).  This model replays a recorded :class:`History` under
configurable per-party compute speeds and bandwidths, which is how the
communication overheads of Section 3.3 (SCAFFOLD's doubled payload)
become visible as time: an algorithm can win per-round and lose per-hour.

There is one party clock, :meth:`SystemModel.party_duration`: the event
engine (:mod:`repro.federated.async_engine`) schedules every upload at
it, and :meth:`SystemModel.replay` takes its maximum per round, so the
replay of a synchronous run is bitwise the barrier engine's
``virtual_times`` — except under mid-training crashes, which the replay
leaves uncharged and the engine charges for the steps they survived.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.federated.history import History, RoundRecord


@dataclass(frozen=True)
class SystemModel:
    """Per-party compute and network characteristics.

    Attributes
    ----------
    step_time:
        Seconds one mini-batch SGD step takes on a speed-1.0 party.
    compute_speeds:
        Relative speed per party (``None`` = all 1.0).  A party with
        speed 0.5 takes twice ``step_time`` per step.
    bandwidths:
        Bytes/second per party for the combined down+up transfer
        (``None`` = all ``default_bandwidth``).
    default_bandwidth:
        Fallback bandwidth (bytes/second).
    server_overhead:
        Fixed per-round seconds (aggregation, scheduling).
    """

    step_time: float = 0.01
    compute_speeds: tuple[float, ...] | None = None
    bandwidths: tuple[float, ...] | None = None
    default_bandwidth: float = 1e6
    server_overhead: float = 0.0

    def __post_init__(self):
        if self.step_time <= 0:
            raise ValueError(f"step_time must be positive, got {self.step_time}")
        if self.default_bandwidth <= 0:
            raise ValueError("default_bandwidth must be positive")
        for name, values in (("compute_speeds", self.compute_speeds),
                             ("bandwidths", self.bandwidths)):
            if values is not None and any(v <= 0 for v in values):
                raise ValueError(f"all {name} must be positive")
        if self.server_overhead < 0:
            raise ValueError("server_overhead must be non-negative")

    def _speed(self, party: int) -> float:
        if self.compute_speeds is None:
            return 1.0
        return self.compute_speeds[party % len(self.compute_speeds)]

    def _bandwidth(self, party: int) -> float:
        if self.bandwidths is None:
            return self.default_bandwidth
        return self.bandwidths[party % len(self.bandwidths)]

    def party_duration(
        self,
        party: int,
        steps: int,
        down_bytes: float,
        up_bytes: float,
        slowdown: float,
    ) -> float:
        """Seconds from one party's dispatch to its upload landing.

        Its compute (``steps`` at its speed, times its straggler
        ``slowdown``), then its download and upload at its bandwidth, then
        the server overhead, in that float order.  The event engine
        schedules every arrival at this cost and :meth:`round_duration` is
        its maximum over a round's parties, so the replay of a barrier
        round is bitwise the engine's clock.
        """
        compute = steps * self.step_time / self._speed(party)
        compute *= slowdown
        transfer = (down_bytes + up_bytes) / self._bandwidth(party)
        return compute + transfer + self.server_overhead

    def round_duration(self, record: RoundRecord) -> float:
        """Seconds one synchronous round takes under this model.

        The round waits for its slowest completer.  With the per-direction
        fields recorded, each is charged the per-client broadcast (the
        round's downlink over the parties it was sent to: ``sampled``, or
        the participants on legacy records) plus *its own* measured uplink
        (``client_bytes_up``, falling back to an even uplink split) —
        which is what makes SCAFFOLD's doubled uplink and per-client codec
        payload variation visible in wall-clock replay.  Records without
        the breakdown keep the even split of ``bytes_communicated``.
        ``slowdowns`` are the fault model's per-party compute multipliers:
        a straggler that completed is charged its slowed elapsed time.
        Dropped and timed-out parties never appear in ``participants``,
        and neither do crashed ones: the replay charges a crash nothing,
        where the event engine holds its slot for the steps it survived.
        """
        participants = record.participants
        if not participants:
            return self.server_overhead
        n = len(participants)
        if len(record.client_steps) != n:
            raise ValueError(
                f"{len(record.client_steps)} step counts for {n} participants"
            )
        for name, values in (
            ("slowdowns", record.slowdowns),
            ("uplink byte counts", record.client_bytes_up),
        ):
            if len(values) not in (0, n):
                raise ValueError(f"{len(values)} {name} for {n} participants")
        if record.bytes_down > 0 or record.bytes_up > 0:
            down = record.bytes_down // len(record.sampled or participants)
            ups = record.client_bytes_up or [record.bytes_up / n] * n
        else:
            down, ups = record.bytes_communicated / n, [0] * n
        slowdowns = record.slowdowns or [1.0] * n
        return max(
            self.party_duration(party, steps, down, up, slowdown)
            for party, steps, up, slowdown in zip(
                participants, record.client_steps, ups, slowdowns
            )
        )

    def replay(self, history: History) -> np.ndarray:
        """Cumulative wall-clock seconds at the end of each round."""
        return np.cumsum([self.round_duration(r) for r in history.records])

    def time_to_accuracy(self, history: History, target: float) -> float:
        """Seconds until the global model first reaches ``target`` accuracy.

        Returns ``inf`` when the run never gets there — the honest answer
        for an algorithm that plateaus below the target.
        """
        times = self.replay(history)
        for record, elapsed in zip(history.records, times):
            if record.test_accuracy is not None and record.test_accuracy >= target:
                return float(elapsed)
        return float("inf")

    def accuracy_time_curve(self, history: History) -> tuple[np.ndarray, np.ndarray]:
        """(elapsed seconds, accuracy) pairs for evaluated rounds."""
        times = self.replay(history)
        mask = ~np.isnan(history.accuracies)
        return times[mask], history.accuracies[mask]
