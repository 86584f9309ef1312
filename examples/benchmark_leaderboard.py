"""Scenario: benchmark several algorithms and maintain a leaderboard.

The paper maintains a public leaderboard ranking FL algorithms per
non-IID setting.  This example runs a small slice of the Table 3 matrix
(two datasets x three partitions x three algorithms), persists every run
in a result store, and renders the leaderboard with the paper-style
"number of times that performs best" tally.

Run:  python examples/benchmark_leaderboard.py     (~20 seconds on CPU)
"""

import tempfile

from repro.experiments.scale import ScalePreset
from repro.experiments.scheduler import run_matrix
from repro.experiments.store import ResultStore
from repro.experiments.table3 import settings_matrix
from repro.spec import RunSpec

PRESET = ScalePreset(
    name="board", n_train=500, n_test=300, num_rounds=6, local_epochs=3, batch_size=32
)
DATASETS = ("mnist", "adult")
PARTITIONS = ("iid", "dir(0.5)", "quantity(0.5)")
ALGORITHMS = ("fedavg", "fedprox", "scaffold")


def report(event) -> None:
    spec = event.spec
    print(
        f"{spec.data.name:6s} {spec.partition.strategy:14s} "
        f"{spec.algorithm.name:9s} final={event.final_accuracy:.3f}"
    )


def main() -> None:
    store = ResultStore(tempfile.mkdtemp(prefix="repro-leaderboard-"))
    specs = [
        RunSpec.build(
            dataset,
            partition,
            algorithm,
            preset=PRESET,
            lr=0.1 if dataset == "adult" else None,
            seed=31,
            mu=0.01 if algorithm == "fedprox" else None,
        )
        for dataset, partition in settings_matrix(DATASETS, PARTITIONS)
        for algorithm in ALGORITHMS
    ]
    run_matrix(specs, store, progress=report)

    print(f"\n{len(store)} runs stored in {store.root}\n")
    print(store.leaderboard().render())


if __name__ == "__main__":
    main()
