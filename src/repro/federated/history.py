"""Round-by-round training history (the data behind Figures 7-12)."""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np


@dataclass
class RoundRecord:
    """Metrics from a single communication round."""

    round_index: int
    test_accuracy: float | None
    train_loss: float
    participants: list[int] = field(default_factory=list)
    #: total bytes shipped this round (both directions, all participants),
    #: measured from the encoded payloads of the run's codec
    #: (:mod:`repro.comm`) — the paper's communication-cost axis.
    bytes_communicated: int = 0
    #: local mini-batch steps taken by each participant this round
    #: (aligned with ``participants``); feeds the wall-clock system model.
    client_steps: list[int] = field(default_factory=list)
    #: per-direction breakdown of ``bytes_communicated`` (server->clients
    #: and clients->server); 0 on records persisted before the breakdown
    #: existed.
    bytes_down: int = 0
    bytes_up: int = 0
    #: measured uplink bytes per completing participant (aligned with
    #: ``participants``); lets the wall-clock replay charge per-client
    #: codec payload variation correctly.  Empty on legacy records.
    client_bytes_up: list[int] = field(default_factory=list)
    #: the full set of parties the sampler drew this round, before the
    #: fault model thinned it; equals ``participants`` on fault-free
    #: rounds.  Empty on legacy records (read it as "= participants").
    sampled: list[int] = field(default_factory=list)
    #: sampled parties that did not make it into aggregation, with
    #: aligned human-readable reasons ("dropout", "deadline",
    #: "crash@step3").
    dropped: list[int] = field(default_factory=list)
    drop_reasons: list[str] = field(default_factory=list)
    #: compute slowdown per completing participant (aligned with
    #: ``participants``; 1.0 = nominal) — how the system model charges
    #: stragglers' elapsed time.  Empty means all-nominal.
    slowdowns: list[float] = field(default_factory=list)
    #: recovery path the executor took this round ("retry", "serial"),
    #: None for a clean round.
    fallback: str | None = None
    #: virtual clock reading when this server step committed (seconds on
    #: the :class:`~repro.federated.systems.SystemModel` time axis).
    #: 0.0 on synchronous-server records, which keep their own wall-clock
    #: replay via :meth:`SystemModel.replay`.
    virtual_time: float = 0.0
    #: per-applied-update staleness (server steps elapsed between a
    #: client's dispatch and its update landing; aligned with
    #: ``participants``).  All zeros under a synchronous barrier; empty
    #: on legacy records.
    staleness: list[int] = field(default_factory=list)
    #: number of buffered client updates this server step applied (the
    #: FedBuff ``M``); 0 on synchronous-server records.
    buffer_flush: int = 0

    def to_dict(self) -> dict:
        """Every field in declaration order (lists copied); the one
        rename is ``round_index``, persisted as ``"round"``."""
        out = {}
        for name, key in _RECORD_KEYS:
            value = getattr(self, name)
            out[key] = list(value) if isinstance(value, list) else value
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "RoundRecord":
        """Inverse of :meth:`to_dict`; a field an older persisted record
        lacks keeps its default."""
        values = {}
        for name, key in _RECORD_KEYS:
            if key in data:
                value = data[key]
                values[name] = list(value) if isinstance(value, list) else value
        return cls(**values)


#: (field name, persisted key) of every RoundRecord field, in field order
_RECORD_KEYS = tuple(
    (f.name, "round" if f.name == "round_index" else f.name)
    for f in fields(RoundRecord)
)


@dataclass
class History:
    """Full run record with convenience accessors for curve analysis."""

    records: list[RoundRecord] = field(default_factory=list)

    def append(self, record: RoundRecord) -> None:
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    @property
    def rounds(self) -> np.ndarray:
        return np.array([r.round_index for r in self.records])

    @property
    def accuracies(self) -> np.ndarray:
        """Per-round test accuracy (NaN for rounds without evaluation)."""
        return np.array(
            [np.nan if r.test_accuracy is None else r.test_accuracy for r in self.records]
        )

    @property
    def losses(self) -> np.ndarray:
        return np.array([r.train_loss for r in self.records])

    @property
    def virtual_times(self) -> np.ndarray:
        """Virtual-clock reading at each server step (async engine runs)."""
        return np.array([r.virtual_time for r in self.records])

    def mean_staleness(self) -> float:
        """Average staleness over every applied update in the run.

        0.0 for synchronous runs (and async runs with ``buffer ==
        cohort``, where the barrier guarantees no update ever waits out
        a server step).
        """
        values = [s for r in self.records for s in r.staleness]
        if not values:
            return 0.0
        return float(np.mean(values))

    @property
    def dropped_counts(self) -> np.ndarray:
        """Parties lost per round (dropout, deadline, crash); 0 = clean."""
        return np.array([len(r.dropped) for r in self.records])

    @property
    def final_accuracy(self) -> float:
        evaluated = [r.test_accuracy for r in self.records if r.test_accuracy is not None]
        if not evaluated:
            raise ValueError("no evaluated rounds in history")
        return float(evaluated[-1])

    @property
    def best_accuracy(self) -> float:
        evaluated = [r.test_accuracy for r in self.records if r.test_accuracy is not None]
        if not evaluated:
            raise ValueError("no evaluated rounds in history")
        return float(max(evaluated))

    def accuracy_instability(self) -> float:
        """Mean absolute round-to-round accuracy change.

        The paper repeatedly observes "unstable" training curves (Findings
        4, 7, 8); this scalar makes the claim measurable and testable.
        """
        acc = self.accuracies
        acc = acc[~np.isnan(acc)]
        if len(acc) < 2:
            return 0.0
        return float(np.abs(np.diff(acc)).mean())

    def cumulative_communication(self) -> np.ndarray:
        """Total bytes shipped up to and including each round.

        Plotting accuracy against this axis instead of the round index is
        the paper's Section 5.2 communication-efficiency view — it is what
        makes SCAFFOLD's doubled payload visible.
        """
        return np.cumsum([r.bytes_communicated for r in self.records])

    def to_dict(self) -> dict:
        return {"records": [r.to_dict() for r in self.records]}

    @classmethod
    def from_dict(cls, data: dict) -> "History":
        """Rebuild a history persisted by :meth:`to_dict` (e.g. from a
        :class:`~repro.experiments.store.ResultStore` JSON file) so the
        analysis accessors work on reloaded runs."""
        return cls(records=[RoundRecord.from_dict(r) for r in data.get("records", [])])

    def curve(self) -> tuple[np.ndarray, np.ndarray]:
        """(rounds, accuracies) restricted to evaluated rounds."""
        mask = ~np.isnan(self.accuracies)
        return self.rounds[mask], self.accuracies[mask]
