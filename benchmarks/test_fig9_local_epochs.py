"""Figure 9: test accuracy vs number of local epochs on CIFAR-10.

The paper varies E in {10, 20, 40, 80} per partition and finds the
accuracy is sensitive to E, with the optimum depending on the partition.
Reduced scale: E in {2, 4, 8} (same 1:2:4 ratios) for FedAvg and FedProx
over two partitions.  What must reproduce: E has a material effect on
final accuracy (spread across E values is non-trivial) under label skew.
"""

from __future__ import annotations

from repro.experiments.scale import ScalePreset
from repro.experiments.sweeps import sweep

from conftest import emit, run_once

EPOCHS = (2, 4, 8)
PARTITIONS = ("#C=2", "dir(0.5)")
#: algorithm -> the overrides that select it
ALGORITHMS = {
    "fedavg": {"algorithm": "fedavg"},
    "fedprox": {"algorithm": "fedprox", "mu": 0.01},
}
PRESET = ScalePreset(
    name="fig9", n_train=600, n_test=300, num_rounds=8, local_epochs=EPOCHS[0],
    batch_size=32,
)
POINTS = {
    (partition, algorithm, epochs): {
        "partition": partition, "local_epochs": epochs, **overrides
    }
    for partition in PARTITIONS
    for algorithm, overrides in ALGORITHMS.items()
    for epochs in EPOCHS
}


def run_sweep() -> dict[tuple[str, str, int], float]:
    return sweep(
        POINTS, "cifar10", PARTITIONS[0], preset=PRESET, seed=5,
        eval_every=PRESET.num_rounds,
    ).finals()


def test_fig9_local_epochs(benchmark, capsys):
    results = run_once(benchmark, run_sweep)
    lines = [f"{'partition':10s} {'algorithm':9s} | " + " ".join(f"E={e:<2d}  " for e in EPOCHS)]
    lines.append("-" * len(lines[0]))
    for partition in PARTITIONS:
        for algorithm in ALGORITHMS:
            cells = " ".join(
                f"{100 * results[(partition, algorithm, e)]:5.1f}" for e in EPOCHS
            )
            lines.append(f"{partition:10s} {algorithm:9s} | {cells}")
    emit("fig9_local_epochs", "\n".join(lines), capsys)

    # The number of local epochs matters: under label skew the spread of
    # final accuracy across E values is non-trivial for some algorithm.
    spreads = []
    for partition in PARTITIONS:
        for algorithm in ALGORITHMS:
            accs = [results[(partition, algorithm, e)] for e in EPOCHS]
            spreads.append(max(accs) - min(accs))
    assert max(spreads) > 0.03
