"""Flattening helpers: parameters/state dicts <-> single vectors.

The federated algorithms reason about models as points in parameter space
(deltas, control variates, norms), and the comm channel encodes the
global model as one flat array.  These helpers convert between the
structured representation and flat vectors.

The default transport dtype is ``float32`` — the dtype every model
parameter and batch-norm buffer already uses — so a flatten/unflatten
round-trip is lossless *and* allocation-half-price compared to the old
``float64`` up/down-casts.  Callers doing high-precision vector arithmetic
(divergence metrics over many terms, control-variate algebra) can request
``dtype=np.float64`` explicitly.
"""

from __future__ import annotations

import math

import numpy as np

from repro.grad.nn.module import Parameter

#: dtype model state is flattened to for the wire; float32
#: round-trips model states exactly and matches the paper's float32
#: communication-cost accounting.
TRANSPORT_DTYPE = np.float32


def parameters_to_vector(params, dtype=TRANSPORT_DTYPE) -> np.ndarray:
    """Concatenate parameter arrays into one flat vector."""
    arrays = [np.asarray(p.data if isinstance(p, Parameter) else p) for p in params]
    if not arrays:
        return np.zeros(0, dtype=dtype)
    return np.concatenate([a.reshape(-1).astype(dtype, copy=False) for a in arrays])


def column_ranges(shapes) -> list[slice | None]:
    """Consecutive ranges of a flat axis, one per shape (None for None)."""
    ranges, end = [], 0
    for shape in shapes:
        start, end = end, end + (0 if shape is None else math.prod(shape))
        ranges.append(None if shape is None else slice(start, end))
    return ranges


def column_views(block: np.ndarray, shapes) -> list[np.ndarray | None]:
    """``lead + shape`` views of consecutive ranges of the last axis of
    ``block`` (``(P,)`` or ``(K, P)``); a None shape gets a None view.

    How an optimizer lays parameters out in one block: writes into the
    block show through the views, and the other way round.
    """
    return [
        None if cols is None else block[..., cols].reshape(block.shape[:-1] + shape)
        for cols, shape in zip(column_ranges(shapes), shapes)
    ]


def vector_to_parameters(vector: np.ndarray, params) -> None:
    """Write a flat vector back into parameter arrays (in place).

    The values are copied into each existing ``param.data``, never rebound,
    so an optimizer's views of the parameters survive the write.
    """
    vector = np.asarray(vector)
    offset = 0
    params = list(params)
    total = sum(int(np.asarray(p.data).size) for p in params)
    if vector.size != total:
        raise ValueError(f"vector has {vector.size} entries, parameters need {total}")
    for param in params:
        size = param.data.size
        np.copyto(param.data, vector[offset : offset + size].reshape(param.data.shape))
        offset += size


def state_dict_to_vector(
    state: dict[str, np.ndarray], keys=None, dtype=TRANSPORT_DTYPE
) -> np.ndarray:
    """Flatten selected ``state`` entries (all keys by default, sorted)."""
    if keys is None:
        keys = sorted(state)
    return np.concatenate(
        [np.asarray(state[k]).reshape(-1).astype(dtype, copy=False) for k in keys]
    )


def vector_to_state_dict(
    vector: np.ndarray, template: dict[str, np.ndarray], keys=None
) -> dict[str, np.ndarray]:
    """Unflatten a vector using ``template`` for shapes/dtypes.

    Entries not listed in ``keys`` are copied through from the template.
    """
    if keys is None:
        keys = sorted(template)
    vector = np.asarray(vector)
    out: dict[str, np.ndarray] = {
        k: np.asarray(v).copy() for k, v in template.items()
    }
    offset = 0
    for key in keys:
        ref = np.asarray(template[key])
        chunk = vector[offset : offset + ref.size]
        out[key] = chunk.reshape(ref.shape).astype(ref.dtype)
        offset += ref.size
    if offset != vector.size:
        raise ValueError(f"vector has {vector.size} entries, template needs {offset}")
    return out
