"""Differential privacy for local training (paper Section 6.1).

The paper's future-directions section: "techniques such as differential
privacy are useful to protect the local databases.  How to decrease the
accuracy loss while ensuring the differential privacy guarantee is a
challenging research direction."  This module provides the standard
DP-SGD mechanism at batch granularity:

1. clip the (global) gradient norm of each mini-batch update to
   :data:`DP_CLIP_NORM`;
2. add Gaussian noise ``N(0, (noise_multiplier * clip_norm / batch)^2)``.

A run turns it on with ``train.dp_noise_multiplier > 0``; local training
then draws the noise from the run seed combined with the party id.
Batch-level clipping is the common lightweight approximation of
per-example DP-SGD; :func:`approximate_epsilon` gives the corresponding
coarse advanced-composition bound (a real deployment would use an RDP/
moments accountant — out of scope for this reproduction).
"""

from __future__ import annotations

import math

import numpy as np

#: maximum L2 norm of each batch gradient (over all parameters) under DP
DP_CLIP_NORM = 1.0


def clip_gradients(grads: list[np.ndarray], clip_norm: float) -> float:
    """Scale ``grads`` in place so their joint L2 norm is <= ``clip_norm``.

    Returns the pre-clipping norm (useful for diagnostics).
    """
    total = math.sqrt(sum(float((g.astype(np.float64) ** 2).sum()) for g in grads))
    if total > clip_norm and total > 0:
        factor = clip_norm / total
        for g in grads:
            g *= factor
    return total


def add_noise(
    grads: list[np.ndarray],
    clip_norm: float,
    noise_multiplier: float,
    batch_size: int,
    rng: np.random.Generator,
) -> None:
    """Add the DP-SGD Gaussian noise to ``grads`` in place."""
    if noise_multiplier == 0:
        return
    std = noise_multiplier * clip_norm / max(batch_size, 1)
    for g in grads:
        g += rng.normal(0.0, std, size=g.shape).astype(g.dtype)


def approximate_epsilon(
    num_steps: int,
    sample_rate: float,
    noise_multiplier: float,
    delta: float = 1e-5,
) -> float:
    """Coarse (epsilon, delta) estimate via amplification + advanced composition.

    Per-step epsilon is amplified by subsampling (factor ``sample_rate``)
    and composed over ``num_steps`` with the advanced composition theorem.
    This intentionally over-estimates compared to an RDP accountant —
    treat it as an upper bound for comparing configurations, not a
    certification.
    """
    if num_steps <= 0:
        raise ValueError(f"num_steps must be positive, got {num_steps}")
    if not 0 < sample_rate <= 1:
        raise ValueError(f"sample_rate must be in (0, 1], got {sample_rate}")
    if noise_multiplier <= 0:
        return math.inf
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    per_step = sample_rate * math.sqrt(2.0 * math.log(1.25 / delta)) / noise_multiplier
    return per_step * math.sqrt(2.0 * num_steps * math.log(1.0 / delta)) + (
        num_steps * per_step * (math.exp(per_step) - 1.0)
    )
