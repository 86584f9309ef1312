"""The full Table 3 experimental matrix as a programmatic API.

The paper's Table 3 covers the nine datasets under every applicable
partitioning strategy for the four algorithms.  ``TABLE3_SETTINGS`` spells
out that matrix exactly (which partition applies to which dataset, per the
paper), and :func:`run_table3` executes any slice of it at a chosen scale,
feeding a :class:`~repro.experiments.leaderboard.Leaderboard`.

The benchmark suite runs a representative slice (see
``benchmarks/test_table3_overall_accuracy.py``); this module is the way to
run more — up to the whole matrix at paper scale, if you have the time.
"""

from __future__ import annotations

from typing import Iterable

from repro.federated.algorithms.fedprox import DEFAULT_MU
from repro.spec import RunSpec
from repro.experiments.leaderboard import Leaderboard
from repro.experiments.runner import TrialSummary
from repro.experiments.scale import BENCH, ScalePreset
from repro.experiments.scheduler import run_matrix

IMAGE_DATASETS = ("mnist", "fmnist", "cifar10", "svhn")
TABULAR_DATASETS = ("adult", "rcv1", "covtype")

#: dataset -> partition specs evaluated in the paper's Table 3.
TABLE3_SETTINGS: dict[str, tuple[str, ...]] = {
    **{
        name: ("dir(0.5)", "#C=1", "#C=2", "#C=3", "gau(0.1)", "quantity(0.5)", "iid")
        for name in IMAGE_DATASETS
    },
    **{
        name: ("dir(0.5)", "#C=1", "quantity(0.5)", "iid")
        for name in TABULAR_DATASETS
    },
    "fcube": ("fcube", "iid"),
    "femnist": ("real-world", "iid"),
}

ALGORITHMS = ("fedavg", "fedprox", "scaffold", "fednova")


def settings_matrix(
    datasets: Iterable[str] | None = None,
    partitions: Iterable[str] | None = None,
) -> list[tuple[str, str]]:
    """The (dataset, partition) cells selected by the given filters."""
    chosen_datasets = tuple(datasets) if datasets is not None else tuple(TABLE3_SETTINGS)
    cells = []
    for dataset in chosen_datasets:
        if dataset not in TABLE3_SETTINGS:
            raise KeyError(
                f"{dataset!r} is not a Table 3 dataset; "
                f"available: {sorted(TABLE3_SETTINGS)}"
            )
        for partition in TABLE3_SETTINGS[dataset]:
            if partitions is not None and partition not in partitions:
                continue
            cells.append((dataset, partition))
    return cells


def table3_specs(
    datasets: Iterable[str] | None = None,
    partitions: Iterable[str] | None = None,
    algorithms: Iterable[str] = ALGORITHMS,
    preset: ScalePreset = BENCH,
    num_trials: int = 1,
    base_seed: int = 0,
    fedprox_mu: float = DEFAULT_MU,
) -> dict[tuple[str, str, str], list[RunSpec]]:
    """Enumerate the selected matrix as specs, without running anything.

    Returns ``(dataset, partition, algorithm) -> [trial specs]`` in
    matrix order — the enumeration :func:`run_table3` executes, and the
    key the leaderboard is reassembled under.
    """
    cells: dict[tuple[str, str, str], list[RunSpec]] = {}
    for dataset, partition in settings_matrix(datasets, partitions):
        for algorithm in algorithms:
            kwargs = {}
            if algorithm == "fedprox":
                kwargs["algorithm_kwargs"] = {"mu": fedprox_mu}
            if dataset == "femnist":
                kwargs["dataset_kwargs"] = {"num_writers": 20}
            base = RunSpec.build(
                dataset, partition, algorithm, preset=preset, **kwargs
            )
            cells[(dataset, partition, algorithm)] = base.trial_specs(
                num_trials, base_seed=base_seed
            )
    return cells


def run_table3(
    datasets: Iterable[str] | None = None,
    partitions: Iterable[str] | None = None,
    algorithms: Iterable[str] = ALGORITHMS,
    preset: ScalePreset = BENCH,
    num_trials: int = 1,
    base_seed: int = 0,
    fedprox_mu: float = DEFAULT_MU,
    store=None,
    progress=None,
    jobs: int = 1,
) -> Leaderboard:
    """Run a slice of the Table 3 matrix and return the leaderboard.

    Parameters
    ----------
    datasets, partitions:
        Filters over :data:`TABLE3_SETTINGS`; ``None`` means everything.
    algorithms:
        Algorithms to compare (the paper's four by default).
    preset:
        Scale preset; the paper's protocol is ``scale.PAPER`` with
        ``num_trials=3``.
    store:
        Optional :class:`~repro.experiments.store.ResultStore`.  Cells
        whose spec is already stored are read back instead of re-run and
        fresh cells are saved as they finish — a killed matrix run
        resumes from where it stopped, and re-invoking a finished one
        runs zero new cells.
    progress:
        Optional callback ``(dataset, partition, algorithm, summary)``
        invoked as the last trial of each cell lands.
    jobs:
        Worker processes.  The pool sees one flat list of (cell, trial)
        specs, so a 3-trial cell does not serialize behind a barrier.

    Cells join the board in matrix order, not completion order, so tied
    cells rank the same on every invocation and at every ``jobs``.
    """
    cells = table3_specs(
        datasets, partitions, algorithms, preset, num_trials, base_seed,
        fedprox_mu,
    )
    run_ids = {key: [spec.run_id() for spec in specs] for key, specs in cells.items()}
    cell_of = {run_id: key for key, ids in run_ids.items() for run_id in ids}
    landed: dict[str, float] = {}

    def on_event(event) -> None:
        if event.kind == "error":
            return  # surfaced by run_matrix once the other cells land
        landed[event.run_id] = event.final_accuracy
        key = cell_of[event.run_id]
        accuracies = [landed.get(run_id) for run_id in run_ids[key]]
        if None not in accuracies:  # true once: each run_id resolves once
            progress(*key, TrialSummary(*key, accuracies=accuracies))

    records = run_matrix(
        [spec for specs in cells.values() for spec in specs],
        store=store,
        jobs=jobs,
        progress=on_event if progress is not None else None,
    )
    final = {record["run_id"]: float(record["final_accuracy"]) for record in records}
    board = Leaderboard()
    for key, ids in run_ids.items():
        board.add(TrialSummary(*key, accuracies=[final[run_id] for run_id in ids]))
    return board
