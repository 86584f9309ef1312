"""Robustness sweeps: accuracy under client dropout and stragglers.

Cross-device federations lose parties mid-round — devices go offline,
slow hardware misses the aggregation deadline.  The paper's protocol is
the fault-free synchronous loop; :func:`dropout_sweep` asks how much of a
cell's accuracy survives when a :class:`~repro.federated.faults.FaultModel`
thins every round.  It fixes one (dataset, partition, algorithm) cell,
runs it once per dropout probability, and collects the accuracy curves
next to per-round drop counts so degradation is directly plottable.

All runs share the seed; the ``0.0`` entry is the fault-free baseline and
reproduces the plain run bitwise, so curve differences come from the
fault schedule alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro.federated.history import History
from repro.spec import RunSpec
from repro.experiments.plotting import line_chart
from repro.experiments.scale import BENCH, ScalePreset
from repro.experiments.scheduler import run_matrix

#: default ladder: fault-free baseline, mild, moderate, severe dropout
DEFAULT_DROPOUT_PROBS = (0.0, 0.1, 0.2, 0.4)


def _label(prob: float) -> str:
    return f"p={prob:g}"


@dataclass
class DropoutSweepResult:
    """Histories of one experiment cell run under each dropout level."""

    dataset: str
    partition: str
    algorithm: str
    probs: list = field(default_factory=list)
    histories: dict = field(default_factory=dict)  # label -> History

    def final_accuracies(self) -> dict:
        return {
            label: history.final_accuracy
            for label, history in self.histories.items()
        }

    def mean_dropped(self) -> dict:
        """Average parties dropped per round at each dropout level."""
        return {
            label: float(np.mean(history.dropped_counts))
            for label, history in self.histories.items()
        }

    def accuracy_degradation(self) -> dict:
        """Final-accuracy loss relative to the fault-free baseline."""
        finals = self.final_accuracies()
        baseline_label = _label(0.0)
        if baseline_label not in finals:
            raise ValueError("no fault-free baseline (p=0) in this sweep")
        baseline = finals[baseline_label]
        return {label: baseline - acc for label, acc in finals.items()}

    def chart(self, height: int = 12, width: int = 60) -> str:
        """Accuracy-per-round curves, one series per dropout level."""
        series = {
            label: history.accuracies
            for label, history in self.histories.items()
        }
        return line_chart(series, height=height, width=width)

    def to_text(self) -> str:
        lines = [
            f"dropout sweep: {self.dataset} / {self.partition} / "
            f"{self.algorithm}"
        ]
        dropped = self.mean_dropped()
        for label, accuracy in self.final_accuracies().items():
            lines.append(
                f"  {label:8s} acc {accuracy:.4f}  "
                f"dropped/round {dropped[label]:5.2f}"
            )
        return "\n".join(lines)


def dropout_sweep(
    dataset: str,
    partition: str,
    algorithm: str = "fedavg",
    dropout_probs: Iterable[float] = DEFAULT_DROPOUT_PROBS,
    preset: ScalePreset = BENCH,
    seed: int = 0,
    store=None,
    **fixed,
) -> DropoutSweepResult:
    """Run one cell per dropout probability and collect the histories.

    Parameters
    ----------
    dropout_probs:
        Per-party per-round dropout probabilities to sweep; include
        ``0.0`` to keep the fault-free baseline
        :meth:`~DropoutSweepResult.accuracy_degradation` compares against.
    store:
        Optional :class:`~repro.experiments.store.ResultStore`; already
        stored dropout points are reloaded instead of re-run, fresh ones
        are saved.
    fixed:
        Additional fixed arguments forwarded to
        :meth:`~repro.spec.RunSpec.build` (e.g. ``straggler_prob`` /
        ``deadline`` to stack straggler loss on top of the swept
        dropout).
    """
    probs = [float(p) for p in dropout_probs]
    result = DropoutSweepResult(
        dataset=dataset, partition=str(partition), algorithm=algorithm,
        probs=probs,
    )
    base = RunSpec.build(
        dataset, partition, algorithm, preset=preset, seed=seed, **fixed
    )
    points = {_label(p): base.with_overrides(dropout_prob=p) for p in probs}
    records = run_matrix(points.values(), store=store)
    for label, record in zip(points, records):
        result.histories[label] = History.from_dict(record["history"])
    return result
