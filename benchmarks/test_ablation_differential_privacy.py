"""Ablation: privacy-utility trade-off (paper Section 6.1).

"How to decrease the accuracy loss while ensuring the differential
privacy guarantee is a challenging research direction" — this bench
quantifies that loss on our substrate: FedAvg under label skew at several
DP noise levels, with the coarse epsilon estimate alongside.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.scale import ScalePreset
from repro.data import load_dataset
from repro.federated import (
    FedAvg,
    FederatedConfig,
    FederatedServer,
    approximate_epsilon,
    make_clients,
)
from repro.models import build_model
from repro.partition import parse_strategy

from conftest import emit, run_once

PRESET = ScalePreset(
    name="abl-dp", n_train=600, n_test=300, num_rounds=6, local_epochs=3, batch_size=32
)
NOISE_LEVELS = (0.0, 0.3, 1.0, 3.0)


def run_sweep():
    train, test, info = load_dataset(
        "mnist", n_train=PRESET.n_train, n_test=PRESET.n_test, seed=21
    )
    part = parse_strategy("dir(0.5)").partition(train, 10, np.random.default_rng(21))
    rows = {}
    for noise in NOISE_LEVELS:
        clients = make_clients(part, train, seed=21, drop_empty=True)
        model = build_model("cnn", info, seed=21)
        config = FederatedConfig(
            num_rounds=PRESET.num_rounds,
            local_epochs=PRESET.local_epochs,
            batch_size=PRESET.batch_size,
            lr=0.01,
            seed=21,
            dp_noise_multiplier=noise,
        )
        server = FederatedServer(model, FedAvg(), clients, config, test_dataset=test)
        history = server.fit()
        steps = PRESET.num_rounds * PRESET.local_epochs * 2  # ~2 batches/epoch/party
        epsilon = (
            float("inf")
            if noise == 0
            else approximate_epsilon(steps, PRESET.batch_size / 60, noise)
        )
        rows[noise] = (history.final_accuracy, epsilon)
    return rows


def test_ablation_differential_privacy(benchmark, capsys):
    rows = run_once(benchmark, run_sweep)
    lines = [f"{'noise':>6s} | {'final acc':>9s} | {'~epsilon':>9s}"]
    lines.append("-" * len(lines[0]))
    for noise, (acc, eps) in rows.items():
        eps_text = "inf" if np.isinf(eps) else f"{eps:.1f}"
        lines.append(f"{noise:6.1f} | {acc:9.3f} | {eps_text:>9s}")
    emit("ablation_differential_privacy", "\n".join(lines), capsys)

    # The trade-off shape: mild noise costs little, heavy noise costs a lot.
    assert rows[0.3][0] > rows[0.0][0] - 0.15
    assert rows[3.0][0] < rows[0.0][0]
