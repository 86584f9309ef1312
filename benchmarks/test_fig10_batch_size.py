"""Figure 10: training curves for batch sizes on CIFAR-10, Dir(0.5).

The paper varies B from 16 to 256 and finds (Finding 6) that larger
batches slow learning in FL just as they do centrally, uniformly across
algorithms.  Reduced scale: B in {8, 16, 32, 64} for FedAvg, plus a small
cross-check that FedProx behaves the same way.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.sweeps import sweep

from conftest import TINY, emit, format_curves, run_once

BATCHES = (8, 16, 32, 64)
#: algorithm -> the overrides that select it
ALGORITHMS = {
    "fedavg": {"algorithm": "fedavg"},
    "fedprox": {"algorithm": "fedprox", "mu": 0.01},
}
POINTS = {
    f"{algorithm} B={batch}": {"batch_size": batch, **overrides}
    for algorithm, overrides in ALGORITHMS.items()
    for batch in BATCHES
}


def run_sweep():
    return sweep(POINTS, "cifar10", "dir(0.5)", preset=TINY, seed=5).curves


def test_fig10_batch_size(benchmark, capsys):
    curves = run_once(benchmark, run_sweep)
    emit("fig10_batch_size", format_curves(curves), capsys)

    # Finding 6: a large batch size slows down learning — early-round
    # accuracy decreases with batch size (fewer SGD steps per epoch).
    early = slice(0, 4)
    small = np.nanmean(curves["fedavg B=8"][early])
    large = np.nanmean(curves["fedavg B=64"][early])
    assert small > large

    # And the batch-size behaviour is algorithm-agnostic: FedProx shows
    # the same ordering.
    small_prox = np.nanmean(curves["fedprox B=8"][early])
    large_prox = np.nanmean(curves["fedprox B=64"][early])
    assert small_prox > large_prox
