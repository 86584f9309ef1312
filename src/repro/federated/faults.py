"""Failure injection for federated rounds (the system-heterogeneity axis).

The paper's Figure 12 shows partial participation alone destabilizing
non-IID training; deployed cross-silo federations add harsher failure
modes a synchronous server must absorb every round:

- **dropout** — a sampled party never responds (network partition, silo
  maintenance); its update is simply missing from the round;
- **stragglers** — a party computes at a fraction of its nominal speed;
  it finishes, but late, and a deadline-based server may stop waiting;
- **crashes** — a party dies *mid-training* after some number of local
  steps; its partial work is lost and must not leak into any shared
  state (the transactional-commit contract in
  :mod:`repro.federated.executor`).

:class:`FaultModel` draws all three per ``(round, party)`` as a **pure
function** of ``(seed, round_index, party)`` — no sequential generator
state.  That makes the schedule independent of sampling order and of how
many parties a round inspects (over-sampling does not perturb later
draws), and it survives checkpoint/resume for free: a resumed run
replays the exact fault schedule of the uninterrupted one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class InjectedCrash(RuntimeError):
    """A fault-model crash, raised from inside a party's local training.

    Carries the number of local steps the party completed before dying so
    failure records can account for the wasted work.  The executor treats
    this as a *permanent* party failure for the round (no retry — the
    schedule is deterministic), unlike transient real exceptions.
    """

    def __init__(self, client_id: int, steps_completed: int):
        super().__init__(
            f"injected crash: client {client_id} died after "
            f"{steps_completed} local step(s)"
        )
        self.client_id = client_id
        self.steps_completed = steps_completed


@dataclass(frozen=True)
class PartyFault:
    """One party's fate for one round, as drawn by a :class:`FaultModel`."""

    #: party never responds this round (update missing, uplink never sent)
    dropped: bool = False
    #: compute-time multiplier (1.0 = nominal; 3.0 = three times slower)
    slowdown: float = 1.0
    #: die after this many local steps (``None`` = no crash)
    crash_after_steps: int | None = None

    @property
    def ok(self) -> bool:
        """Whether the party completes the round at nominal speed."""
        return not self.dropped and self.crash_after_steps is None and self.slowdown == 1.0


#: the no-fault outcome, shared so fault-free rounds allocate nothing
NO_FAULT = PartyFault()


@dataclass(frozen=True)
class FaultModel:
    """Seeded per-round, per-party failure injection.

    Parameters
    ----------
    dropout_prob:
        Probability a sampled party silently drops out of a round.
    straggler_prob:
        Probability a responding party runs slowed this round.
    straggler_factor:
        Compute-time multiplier applied to stragglers (>= 1).  Under a
        round ``deadline`` smaller than this factor, stragglers time out
        and count as dropped.
    crash_prob:
        Probability a responding party crashes mid-training.
    crash_after_steps:
        Local steps a crashing party completes before dying (>= 1).
    seed:
        Seeds the per-``(round, party)`` draws; independent of every
        other generator in the run.
    """

    dropout_prob: float = 0.0
    straggler_prob: float = 0.0
    straggler_factor: float = 1.0
    crash_prob: float = 0.0
    crash_after_steps: int = 1
    seed: int = 0

    def __post_init__(self):
        from repro.spec import FaultSpec

        problems = FaultSpec(
            dropout_prob=self.dropout_prob,
            straggler_prob=self.straggler_prob,
            straggler_factor=self.straggler_factor,
            crash_prob=self.crash_prob,
        ).problems()
        if not self.crash_after_steps >= 1:
            problems.append(
                f"crash_after_steps must be >= 1, got {self.crash_after_steps}"
            )
        if problems:
            raise ValueError("; ".join(problems))

    @property
    def active(self) -> bool:
        """Whether any failure mode has non-zero probability."""
        return (
            self.dropout_prob > 0.0
            or self.crash_prob > 0.0
            or (self.straggler_prob > 0.0 and self.straggler_factor > 1.0)
        )

    @classmethod
    def from_config(cls, config) -> "FaultModel | None":
        """The fault model a :class:`FederatedConfig` asks for (or None)."""
        model = cls(
            dropout_prob=config.dropout_prob,
            straggler_prob=config.straggler_prob,
            straggler_factor=config.straggler_factor,
            crash_prob=config.crash_prob,
            seed=config.seed + 318_211,
        )
        return model if model.active else None

    def party_fault(self, round_index: int, party: int) -> PartyFault:
        """Draw one party's fate for one round (pure in its arguments)."""
        if not self.active:
            return NO_FAULT
        # Mask the seed into SeedSequence's non-negative domain; the round
        # and party indices are non-negative already.
        rng = np.random.default_rng(
            (self.seed & 0x7FFFFFFF, int(round_index), int(party))
        )
        fate = rng.random()
        if fate < self.dropout_prob:
            return PartyFault(dropped=True)
        if fate < self.dropout_prob + self.crash_prob:
            return PartyFault(crash_after_steps=self.crash_after_steps)
        if self.straggler_prob > 0.0 and rng.random() < self.straggler_prob:
            return PartyFault(slowdown=self.straggler_factor)
        return NO_FAULT

    def round_faults(
        self, round_index: int, parties: "list[int] | np.ndarray"
    ) -> dict[int, PartyFault]:
        """Fates for every party in ``parties`` this round."""
        return {
            int(party): self.party_fault(round_index, int(party))
            for party in parties
        }

    def expected_drop_rate(self, deadline: float | None = None) -> float:
        """Expected fraction of sampled parties lost to the fault model.

        Counts dropouts and crashes, plus stragglers when a round
        ``deadline`` (a slowdown threshold, see
        :meth:`repro.federated.server.FederatedServer.run_round`) would
        time them out.  Drives the server's over-sampling so expected
        *completed* participation matches the configured fraction.
        """
        lost = self.dropout_prob + self.crash_prob
        if (
            deadline is not None
            and self.straggler_factor > deadline
            and self.straggler_prob > 0.0
        ):
            lost += (1.0 - lost) * self.straggler_prob
        return min(lost, 1.0)

    def __repr__(self) -> str:
        return (
            f"FaultModel(dropout={self.dropout_prob}, "
            f"straggler={self.straggler_prob}x{self.straggler_factor}, "
            f"crash={self.crash_prob}@{self.crash_after_steps})"
        )
