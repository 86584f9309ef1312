"""Section 5.2 supplement: communication-efficiency accounting.

The paper's Section 5.2 discusses convergence per communication round and
notes SCAFFOLD "doubles the communication size per round".  This bench
makes the cost explicit: it reports, per algorithm, the bytes shipped per
round and the accuracy reached per megabyte communicated.
"""

from __future__ import annotations

from repro.comm import FLOAT_BYTES
from repro.experiments.scale import ScalePreset
from repro.experiments.sweeps import sweep
from repro.federated import FedNova

from conftest import emit, run_once

PRESET = ScalePreset(
    name="sec52", n_train=600, n_test=300, num_rounds=8, local_epochs=3, batch_size=32
)
POINTS = {
    "fedavg": {},
    "fedprox": {"algorithm": "fedprox", "mu": 0.01},
    "scaffold": {"algorithm": "scaffold"},
    "fednova": {"algorithm": "fednova"},
}


def run_accounting():
    result = sweep(POINTS, "mnist", "dir(0.5)", preset=PRESET, seed=13)
    return {
        algorithm: {
            "per_round_bytes": history.records[0].bytes_communicated,
            "completers": len(history.records[0].participants),
            "per_round_mb": history.records[0].bytes_communicated / 1e6,
            "total_mb": history.cumulative_communication()[-1] / 1e6,
            "final_acc": history.final_accuracy,
        }
        for algorithm, history in result.histories.items()
    }


def test_sec52_communication(benchmark, capsys):
    rows = run_once(benchmark, run_accounting)
    lines = [f"{'algorithm':9s} | {'MB/round':>8s} | {'total MB':>8s} | {'final acc':>9s} | {'acc/MB':>7s}"]
    lines.append("-" * len(lines[0]))
    for algorithm, row in rows.items():
        lines.append(
            f"{algorithm:9s} | {row['per_round_mb']:8.2f} | {row['total_mb']:8.2f} | "
            f"{row['final_acc']:9.3f} | {row['final_acc'] / row['total_mb']:7.3f}"
        )
    emit("sec52_communication", "\n".join(lines), capsys)

    # FedProx costs exactly what FedAvg costs; FedNova's upload also
    # carries each completing party's step count tau_i.
    assert rows["fedprox"]["per_round_bytes"] == rows["fedavg"]["per_round_bytes"]
    tau_bytes = FLOAT_BYTES * FedNova().uplink_metadata_floats()
    assert rows["fednova"]["per_round_bytes"] - rows["fedavg"]["per_round_bytes"] == (
        tau_bytes * rows["fednova"]["completers"]
    )
    # SCAFFOLD roughly doubles the traffic (exactly double for models
    # without buffers; slightly less than 2x when buffers exist).
    ratio = rows["scaffold"]["per_round_mb"] / rows["fedavg"]["per_round_mb"]
    assert 1.9 < ratio <= 2.0
