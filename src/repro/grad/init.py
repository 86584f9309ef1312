"""Weight initialization schemes.

All initializers take an explicit ``numpy.random.Generator`` so that model
construction is fully deterministic given a seed — a requirement for
reproducing the paper's multi-trial mean/std protocol.
"""

from __future__ import annotations

import math

import numpy as np


def _fan_in(shape: tuple[int, ...]) -> int:
    """Inputs per output unit of a linear ``(out, in)`` or conv
    ``(out, in, k, k)`` weight."""
    if len(shape) not in (2, 4):
        raise ValueError(f"cannot infer fan for shape {shape}")
    return math.prod(shape[1:])


def kaiming_uniform(
    shape: tuple[int, ...], rng: np.random.Generator, gain: float = math.sqrt(2.0)
) -> np.ndarray:
    """He/Kaiming uniform init, suited to ReLU networks."""
    fan_in = _fan_in(shape)
    bound = gain * math.sqrt(3.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(np.float32)


def bias_uniform(fan_in: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """PyTorch-style bias init: uniform in ``+-1/sqrt(fan_in)``."""
    bound = 1.0 / math.sqrt(fan_in) if fan_in > 0 else 0.0
    return rng.uniform(-bound, bound, size=size).astype(np.float32)
