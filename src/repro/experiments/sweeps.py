"""Sweeps: the machinery behind Figures 8, 9, 10 and the Section 5.2 studies.

The paper's sensitivity studies all share one shape — fix a (dataset,
partition, algorithm) cell, change it point by point, compare the runs.
:func:`sweep` is that shape as an API.  A sweep point is a label mapped
to the overrides :meth:`~repro.spec.RunSpec.with_overrides` applies to
one base spec, so a one-knob axis (``{lr: {"lr": lr} for lr in values}``),
a codec ladder (``{"qsgd(4b)": {"codec": "qsgd", "codec_bits": 4}}``), a
dropout level, an async buffer size or an algorithm switch are each one
point.  A typo'd name fails loudly with the list of valid names, and a
point that does not validate (``mu`` on FedAvg) fails before any compute.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.federated.history import History
from repro.spec import RunSpec
from repro.experiments.scale import BENCH, ScalePreset
from repro.experiments.scheduler import run_matrix


@dataclass
class SweepResult:
    """One :class:`~repro.federated.history.History` per sweep point."""

    histories: dict = field(default_factory=dict)  # label -> History

    @property
    def curves(self) -> dict:
        """Per-round accuracy arrays indexed by label."""
        return {
            label: np.asarray(history.accuracies)
            for label, history in self.histories.items()
        }

    def finals(self) -> dict:
        return {
            label: history.final_accuracy
            for label, history in self.histories.items()
        }

    def best_value(self):
        """The label with the best final accuracy.

        Ties break toward the smallest label — ``max(key=finals.get)``
        tie-broke by dict insertion order, so two sweeps over the same
        points in different orders could disagree.  Labels that don't
        order among themselves (mixed types) keep insertion order.
        """
        finals = self.finals()
        best = max(finals.values())
        candidates = [label for label, acc in finals.items() if acc == best]
        try:
            return min(candidates)
        except TypeError:
            return candidates[0]

    def spread(self) -> float:
        """Max minus min final accuracy across the sweep (sensitivity)."""
        finals = list(self.finals().values())
        return float(max(finals) - min(finals))

    def to_text(self) -> str:
        return "\n".join(
            f"{label}: " + " ".join(f"{float(a):.3f}" for a in curve)
            for label, curve in self.curves.items()
        )


def sweep_specs(
    points: dict,
    dataset: str,
    partition: str,
    algorithm: str = "fedavg",
    *,
    preset: ScalePreset = BENCH,
    seed: int = 0,
    **fixed,
) -> dict:
    """Enumerate a sweep's points as ``label -> RunSpec``, running nothing.

    The base spec is ``RunSpec.build(dataset, partition, algorithm,
    preset=preset, seed=seed, **fixed)``; each point is the base with its
    overrides applied literally, so an unknown name raises ``KeyError``
    here.  A point that switches ``partition`` keeps the base's
    ``num_parties``: set it in the point when the new strategy's default
    party count differs (``fcube``, ``real-world``).
    """
    base = RunSpec.build(
        dataset, partition, algorithm, preset=preset, seed=seed, **fixed
    )
    return {
        label: base.with_overrides(**overrides) for label, overrides in points.items()
    }


def sweep(
    points: dict,
    dataset: str,
    partition: str,
    algorithm: str = "fedavg",
    *,
    preset: ScalePreset = BENCH,
    seed: int = 0,
    store=None,
    jobs: int = 1,
    **fixed,
) -> SweepResult:
    """Run one experiment per sweep point and collect the histories.

    Parameters
    ----------
    points:
        ``label -> overrides``: any names :meth:`RunSpec.with_overrides`
        accepts — flat names like ``lr`` / ``codec`` / ``dropout_prob``,
        dotted paths like ``train.lr``, and ``mu`` (merged into the
        algorithm's kwargs; only FedProx takes it).
    store:
        Optional :class:`~repro.experiments.store.ResultStore`.  Points
        whose spec is already stored are reloaded instead of re-run and
        fresh points are saved, so re-invoking a finished sweep runs
        zero new cells.
    jobs:
        Worker processes (see
        :func:`~repro.experiments.scheduler.run_matrix`).
    fixed:
        Additional fixed arguments forwarded to
        :meth:`~repro.spec.RunSpec.build`.
    """
    specs = sweep_specs(
        points, dataset, partition, algorithm, preset=preset, seed=seed, **fixed
    )
    records = run_matrix(specs.values(), store=store, jobs=jobs)
    return SweepResult(
        {
            label: History.from_dict(record["history"])
            for label, record in zip(specs, records)
        }
    )
