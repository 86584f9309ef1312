"""Experiment harness: reproduce the paper's tables and figures.

- :func:`run_federated_experiment` — one (dataset, partition, algorithm)
  cell at configurable scale;
- :func:`run_trials` — the paper's 3-trial mean/std protocol;
- :func:`run_matrix` — the one way to run a set of cells (what
  ``run_trials``, :func:`sweep` and ``run_table3`` all call);
- :func:`sweep` — fix a cell, vary it point by point (Figures 8-10, the
  Section 5.2 codec and dropout studies, the sync-vs-async trade-off);
- :func:`recommend_algorithm` — the Figure 6 decision tree;
- :mod:`repro.experiments.scale` — the reduced-scale presets the
  benchmarks run at, with the paper-scale settings alongside.
"""

from repro.experiments.runner import (
    ExperimentOutcome,
    TrialSummary,
    run_federated_experiment,
    run_spec,
    run_trials,
)
from repro.spec import RunSpec
from repro.experiments.decision_tree import SkewDescription, recommend_algorithm
from repro.experiments.leaderboard import Leaderboard
from repro.experiments.centralized import centralized_reference, train_centralized
from repro.experiments.scheduler import CellEvent, MatrixReport, run_cells, run_matrix
from repro.experiments.sweeps import SweepResult, sweep
from repro.experiments import scale

__all__ = [
    "run_federated_experiment",
    "run_spec",
    "RunSpec",
    "run_trials",
    "ExperimentOutcome",
    "TrialSummary",
    "recommend_algorithm",
    "SkewDescription",
    "Leaderboard",
    "train_centralized",
    "centralized_reference",
    "sweep",
    "SweepResult",
    "run_cells",
    "run_matrix",
    "CellEvent",
    "MatrixReport",
    "scale",
]
