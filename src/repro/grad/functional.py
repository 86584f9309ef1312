"""The compound operations: linear, convolution, pooling, cross-entropy.

Each is one op of :data:`repro.grad.ops.OPS` (its kernels live there,
shared with compiled replay); the functions here check their inputs and
record the op.  Convolution is im2col + one BLAS ``matmul`` per layer,
which keeps CPU training of the paper's CNNs practical; max pooling walks
a tap matrix instead.
"""

from __future__ import annotations

import numpy as np

from repro.grad.tensor import Tensor, _apply


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """2D convolution (cross-correlation) over ``(N, C, H, W)`` inputs.

    ``weight`` has shape ``(out_channels, in_channels, k, k)``; ``bias``
    has shape ``(out_channels,)``.
    """
    _, c, _, _ = x.shape
    _, in_channels, kernel, kernel2 = weight.shape
    if kernel != kernel2:
        raise ValueError("only square kernels are supported")
    if in_channels != c:
        raise ValueError(f"input has {c} channels, weight expects {in_channels}")
    parents = (x, weight) if bias is None else (x, weight, bias)
    return _apply("conv2d", parents, {"stride": stride, "padding": padding})


def max_pool2d(x: Tensor, kernel: int, stride: int | None = None) -> Tensor:
    """Max pooling over non-overlapping (by default) windows."""
    if stride is None:
        stride = kernel
    return _apply("max_pool2d", (x,), {"kernel": kernel, "stride": stride})


def global_avg_pool2d(x: Tensor) -> Tensor:
    """Average over the full spatial extent, returning ``(N, C)``."""
    n, c, h, w = x.shape
    return x.reshape(n, c, h * w).mean(axis=2)


def cross_entropy(logits: Tensor, targets: np.ndarray, reduction: str = "mean") -> Tensor:
    """Softmax cross-entropy with integer class targets.

    Forward and backward are fused into a single graph node (see the
    ``cross_entropy`` op): no intermediate log-softmax tensor or
    advanced-indexing node is materialized.

    Parameters
    ----------
    logits:
        ``(N, num_classes)`` unnormalized scores.
    targets:
        ``(N,)`` integer class indices (a plain array or an int Tensor).
    reduction:
        ``"mean"``, ``"sum"`` or ``"none"``.
    """
    if isinstance(targets, Tensor):
        targets = targets.data
    targets = np.asarray(targets)
    if targets.ndim != 1:
        raise ValueError(f"targets must be 1-D class indices, got shape {targets.shape}")
    if targets.shape[0] != logits.shape[0]:
        raise ValueError("logits and targets disagree on batch size")
    if reduction not in ("none", "sum", "mean"):
        raise ValueError(f"unknown reduction {reduction!r}")
    meta = {"reduction": reduction, "targets": targets}
    return _apply("cross_entropy", (logits,), meta)


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Affine map ``x @ weight.T + bias`` (PyTorch weight layout), one op."""
    return _apply("linear", (x, weight) if bias is None else (x, weight, bias))
