"""Figure 8: FedProx training curves for mu in {0, 0.001, 0.01, 0.1, 1}
on CIFAR-10 under ``p_k ~ Dir(0.5)``.

What must reproduce: larger mu slows early training (the proximal term
shrinks local updates), and mu = 0 coincides with FedAvg exactly.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.scale import ScalePreset
from repro.experiments.sweeps import sweep

from conftest import emit, format_curves, run_once

PRESET = ScalePreset(
    name="fig8", n_train=600, n_test=300, num_rounds=10, local_epochs=3, batch_size=32
)
MUS = (0.0, 0.001, 0.01, 0.1, 1.0)
POINTS = {f"mu={mu}": {"algorithm": "fedprox", "mu": mu} for mu in MUS} | {"fedavg": {}}


def run_sweep() -> dict[str, np.ndarray]:
    return sweep(POINTS, "cifar10", "dir(0.5)", "fedavg", preset=PRESET, seed=5).curves


def test_fig8_fedprox_mu(benchmark, capsys):
    curves = run_once(benchmark, run_sweep)
    emit("fig8_fedprox_mu", format_curves(curves), capsys)

    # mu = 0 is exactly FedAvg (same seeds, same trajectory).
    np.testing.assert_allclose(curves["mu=0.0"], curves["fedavg"])

    # A large mu slows training: early-round accuracy is lower than mu=0.
    early = slice(0, 5)
    assert np.nanmean(curves["mu=1.0"][early]) < np.nanmean(curves["mu=0.0"][early])

    # Small mu barely changes the curve (the paper: "best mu is always
    # small ... little influence").
    gap = np.abs(curves["mu=0.001"] - curves["mu=0.0"]).mean()
    assert gap < 0.1
