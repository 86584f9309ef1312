"""Metrics: model-space diagnostics for non-IID runs.

The paper's benchmark metric, top-1 test accuracy, is
:func:`repro.federated.evaluate`'s ``.accuracy``.  Partition-level skew
metrics live in :mod:`repro.partition.stats`; this package adds
model-space diagnostics used to analyze *why* runs destabilize (drift
norms, weight divergence), supporting the paper's Section 6 discussion of
profiling non-IID data.
"""

from repro.metrics.divergence import pairwise_weight_divergence, state_distance

__all__ = [
    "state_distance",
    "pairwise_weight_divergence",
]
