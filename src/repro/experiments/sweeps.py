"""Hyper-parameter sweeps: the machinery behind Figures 8, 9 and 10.

The paper's sensitivity studies all share one shape — fix a (dataset,
partition, algorithm) cell, vary one knob, collect the training curves.
:func:`sweep` is that shape as an API: it builds one base
:class:`~repro.spec.RunSpec` and derives each point with
``with_overrides``, so any spec field is sweepable and a typo'd axis
name fails loudly with the list of valid names.  The figure benches are
thin wrappers over specific knobs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro.federated.history import History
from repro.spec import RunSpec, overridable_names
from repro.experiments.scale import BENCH, ScalePreset
from repro.experiments.scheduler import run_matrix


@dataclass
class SweepResult:
    """Curves and final accuracies indexed by the swept value."""

    parameter: str
    curves: dict = field(default_factory=dict)  # value -> accuracy array

    def finals(self) -> dict:
        return {value: float(curve[-1]) for value, curve in self.curves.items()}

    def best_value(self):
        """The swept value with the best final accuracy.

        Ties break toward the smallest value — ``max(key=finals.get)``
        tie-broke by dict insertion order, so two sweeps over the same
        values in different orders could disagree.  Values that don't
        order among themselves (mixed types) keep insertion order.
        """
        finals = self.finals()
        best = max(finals.values())
        candidates = [value for value, acc in finals.items() if acc == best]
        try:
            return min(candidates)
        except TypeError:
            return candidates[0]

    def spread(self) -> float:
        """Max minus min final accuracy across the sweep (sensitivity)."""
        finals = list(self.finals().values())
        return float(max(finals) - min(finals))

    def to_text(self) -> str:
        lines = [f"sweep over {self.parameter}"]
        for value, curve in self.curves.items():
            series = " ".join(f"{float(a):.3f}" for a in curve)
            lines.append(f"  {self.parameter}={value}: {series}")
        return "\n".join(lines)


def sweep_specs(
    parameter: str,
    values: Iterable,
    dataset: str,
    partition: str,
    algorithm: str = "fedavg",
    preset: ScalePreset = BENCH,
    seed: int = 0,
    **fixed,
) -> dict:
    """Enumerate a sweep's points as ``value -> RunSpec``, running nothing.

    The validation and derivation half of :func:`sweep`: the axis typo
    check fires here, before any compute starts.
    """
    if parameter == "mu" and algorithm != "fedprox":
        raise ValueError("sweeping mu requires algorithm='fedprox'")
    base = RunSpec.build(
        dataset, partition, algorithm, preset=preset, seed=seed, **fixed
    )
    if parameter not in overridable_names() and "." not in parameter:
        raise KeyError(
            f"cannot sweep {parameter!r}; sweepable: {list(overridable_names())} "
            "or section.field paths"
        )
    return {value: base.with_overrides(**{parameter: value}) for value in values}


def sweep(
    parameter: str,
    values: Iterable,
    dataset: str,
    partition: str,
    algorithm: str = "fedavg",
    preset: ScalePreset = BENCH,
    seed: int = 0,
    store=None,
    jobs: int = 1,
    **fixed,
) -> SweepResult:
    """Run one experiment per value of ``parameter`` and collect curves.

    Parameters
    ----------
    parameter:
        Any override :meth:`RunSpec.with_overrides` accepts — a flat
        name like ``lr`` / ``local_epochs`` / ``dropout_prob``, a dotted
        path like ``train.lr``, or ``mu`` (which implies
        ``algorithm="fedprox"``).  Unknown names raise ``KeyError``
        listing the alternatives.
    values:
        The values to try (the x-axis of the paper's sensitivity figures).
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
    points = sweep_specs(
        parameter, values, dataset, partition, algorithm,
        preset=preset, seed=seed, **fixed,
    )
    result = SweepResult(parameter=parameter)
    records = run_matrix(points.values(), store=store, jobs=jobs)
    for value, record in zip(points, records):
        history = History.from_dict(record["history"])
        result.curves[value] = np.asarray(history.accuracies)
    return result


def async_tradeoff(
    dataset: str,
    partition: str,
    algorithm: str = "fedavg",
    buffer_sizes: Iterable[int] = (1, 2, 4),
    sample_per_round: int = 8,
    staleness_exponent: float = 0.5,
    preset: ScalePreset = BENCH,
    seed: int = 0,
    store=None,
    jobs: int = 1,
    **fixed,
) -> dict:
    """The sync-vs-async study: one barrier baseline, then a buffer sweep.

    Runs the cell synchronously (``aggregation="sync"``), then async with
    each buffer size ``M`` at a fixed cohort — ``M == cohort`` is an exact
    barrier, smaller ``M`` flushes earlier and admits staleness.  Results
    flow through the spec/store machinery like any other sweep, so every
    point is content-addressed and resumable.

    Returns a dict with the sync accuracy curve plus, per buffer size,
    the accuracy curve, mean staleness and final virtual time.
    """
    base = RunSpec.build(
        dataset, partition, algorithm, preset=preset, seed=seed,
        sample_per_round=sample_per_round, **fixed,
    )
    if "sample_fraction" not in fixed:
        # The sync server derives its cohort from sample_fraction; pin it
        # so the barrier baseline trains the same number of parties per
        # round as every async point.
        base = base.with_overrides(
            sample_fraction=sample_per_round / base.partition.num_parties
        )
    specs = {"sync": base}
    for buffer in buffer_sizes:
        specs[buffer] = base.with_overrides(
            aggregation="async",
            buffer_size=buffer,
            staleness_exponent=staleness_exponent,
        )

    records = run_matrix(specs.values(), store=store, jobs=jobs)
    histories = {
        label: History.from_dict(record["history"])
        for label, record in zip(specs, records)
    }

    points = {}
    for buffer in buffer_sizes:
        history = histories[buffer]
        points[buffer] = {
            "accuracies": np.asarray(history.accuracies),
            "mean_staleness": history.mean_staleness(),
            "virtual_time": float(history.virtual_times[-1]),
        }
    return {
        "sync": np.asarray(histories["sync"].accuracies),
        "sample_per_round": sample_per_round,
        "staleness_exponent": staleness_exponent,
        "async": points,
    }
