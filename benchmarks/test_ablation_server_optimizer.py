"""Ablation: server-side optimization (FedOpt extension).

The paper treats the server step as plain averaging (a step of 1); the
FedOpt line of work (cited in its related work) adds server momentum or
Adam over the round's pseudo-gradient.  This bench compares them under
label skew.
"""

from __future__ import annotations

import numpy as np

from repro.experiments import run_federated_experiment
from repro.experiments.scale import ScalePreset

from conftest import emit, format_curves, run_once

PRESET = ScalePreset(
    name="abl-srv", n_train=600, n_test=300, num_rounds=8, local_epochs=3, batch_size=32
)


def run_variants():
    curves = {}
    runs = (
        ("fedavg", "fedavg", None),
        ("fedopt sgdm", "fedopt", {"variant": "sgdm", "server_momentum": 0.6}),
        ("fedopt adam", "fedopt", {"variant": "adam"}),
    )
    for label, algorithm, kwargs in runs:
        outcome = run_federated_experiment(
            "mnist",
            "dir(0.5)",
            algorithm,
            preset=PRESET,
            seed=11,
            algorithm_kwargs=kwargs,
        )
        curves[label] = outcome.history.accuracies
    return curves


def test_ablation_server_optimizer(benchmark, capsys):
    curves = run_once(benchmark, run_variants)
    emit("ablation_server_optimizer", format_curves(curves), capsys)
    for label, series in curves.items():
        assert np.isfinite(series).all(), label
        assert np.nanmax(series) > 0.7, label
