"""Model-space divergence diagnostics.

The paper explains non-IID degradation through *drift*: local models move
towards local optima that disagree (Figure 2).  These helpers quantify that
drift so tests and ablations can assert it, instead of eyeballing curves.
"""

from __future__ import annotations

from itertools import combinations
from typing import Sequence

import numpy as np

from repro.grad.serialize import state_dict_to_vector


def state_distance(
    a: dict[str, np.ndarray],
    b: dict[str, np.ndarray],
    keys: Sequence[str] | None = None,
) -> float:
    """Euclidean distance between two state dicts over ``keys``.

    Between a global model and a party's locally trained one it is the
    size of the local update ``||w^t - w_i^t||`` (drift magnitude).
    """
    if keys is None:
        keys = sorted(set(a) & set(b))
    va = state_dict_to_vector(a, keys)
    vb = state_dict_to_vector(b, keys)
    return float(np.linalg.norm(va - vb))


def pairwise_weight_divergence(
    states: Sequence[dict[str, np.ndarray]],
    keys: Sequence[str] | None = None,
) -> float:
    """Mean pairwise distance among party models after local training.

    Near zero under IID data (parties agree); grows with label skew —
    the measurable counterpart of the paper's Figure 2 intuition.
    """
    if len(states) < 2:
        return 0.0
    distances = [
        state_distance(a, b, keys) for a, b in combinations(states, 2)
    ]
    return float(np.mean(distances))
