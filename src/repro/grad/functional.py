"""Efficient compound operations: linear, convolution, pooling, cross-entropy.

Convolution is implemented with im2col/col2im so the heavy lifting
happens inside a single BLAS ``matmul`` per layer, which keeps CPU
training of the paper's CNNs practical; max pooling walks a tap matrix
instead.  The array kernels (:func:`col2im`, :func:`max_pool_forward`,
:func:`max_pool_backward`) are also what the compiled programs of
:mod:`repro.grad.capture` run, with kept buffers.
"""

from __future__ import annotations

import math

import numpy as np

from repro.grad.tensor import (
    Tensor,
    _swap_last,
    _unbroadcast,
    is_grad_enabled,
)


# ----------------------------------------------------------------------
# im2col / col2im
# ----------------------------------------------------------------------
def _out_size(size: int, kernel: int, stride: int, padding: int) -> int:
    return (size + 2 * padding - kernel) // stride + 1


#: Max pooled buffers per (shape, kernel, stride, padding) key; beyond
#: this, untracked fresh arrays are allocated (protects code that trains
#: without ever calling ``zero_grad``, which would otherwise grow the pool
#: without bound).
_POOL_CAP = 32

#: Reusable im2col column buffers, keyed by the full geometry of the call.
#: Training batches have fixed shapes, so after the first step every im2col
#: on the hot path writes into an existing buffer instead of allocating the
#: largest temporary of the whole forward pass.  Buffers are recycled per
#: *slot*: each call in grad mode claims the next slot for its key (the
#: backward closure holds the columns until the backward pass runs), and
#: :func:`reset_im2col_workspace` — wired into ``Optimizer.zero_grad`` /
#: ``Module.zero_grad``, i.e. the training-step boundary — rewinds the
#: cursors once the previous step's graph is dead.
_COLUMN_POOL: dict[tuple, list[np.ndarray]] = {}
_COLUMN_CURSOR: dict[tuple, int] = {}
#: Zero-padded input scratch, reusable immediately (only read during the
#: copy into columns, never captured by a backward closure).  The zero
#: border is written once; only the interior is refreshed per call.
_PADDED_SCRATCH: dict[tuple, np.ndarray] = {}


def reset_im2col_workspace() -> None:
    """Mark pooled im2col buffers reusable (called at step boundaries)."""
    _COLUMN_CURSOR.clear()


def _column_buffer(key: tuple, shape: tuple, dtype) -> np.ndarray:
    if is_grad_enabled():
        # The buffer stays live until backward: give every call since the
        # last reset its own slot.
        pool = _COLUMN_POOL.setdefault(key, [])
        index = _COLUMN_CURSOR.get(key, 0)
        _COLUMN_CURSOR[key] = index + 1
        if index >= _POOL_CAP:
            return np.empty(shape, dtype=dtype)
        if index == len(pool):
            pool.append(np.empty(shape, dtype=dtype))
        return pool[index]
    # No-grad (evaluation): nothing outlives the call, one scratch
    # suffices.  Kept under a distinct key so a pending training graph can
    # never alias with evaluation run mid-step.
    scratch_key = key + ("nograd",)
    pool = _COLUMN_POOL.setdefault(scratch_key, [])
    if not pool:
        pool.append(np.empty(shape, dtype=dtype))
    return pool[0]


def im2col(
    images: np.ndarray, kernel: int, stride: int = 1, padding: int = 0
) -> np.ndarray:
    """Rearrange sliding ``kernel x kernel`` patches into columns.

    Parameters
    ----------
    images:
        Array of shape ``(N, C, H, W)``.

    Returns
    -------
    Array of shape ``(N * out_h * out_w, C * kernel * kernel)``.
    """
    n, c, h, w = images.shape
    out_h = _out_size(h, kernel, stride, padding)
    out_w = _out_size(w, kernel, stride, padding)
    if padding > 0:
        pad_key = (n, c, h, w, padding, np.dtype(images.dtype).str)
        padded = _PADDED_SCRATCH.get(pad_key)
        if padded is None:
            padded = np.zeros(
                (n, c, h + 2 * padding, w + 2 * padding), dtype=images.dtype
            )
            _PADDED_SCRATCH[pad_key] = padded
        padded[:, :, padding : padding + h, padding : padding + w] = images
        images = padded
    # (N, out_h, out_w, C, k, k) patches, materialized contiguously into a
    # pooled buffer; the final reshape to patch rows is then a view.
    key = (n, c, h, w, kernel, stride, padding, np.dtype(images.dtype).str)
    columns = _column_buffer(key, (n, out_h, out_w, c, kernel, kernel), images.dtype)
    np.copyto(columns, sliding_windows(images, kernel, stride).transpose(0, 2, 3, 1, 4, 5))
    return columns.reshape(n * out_h * out_w, c * kernel * kernel)


def sliding_windows(images: np.ndarray, kernel: int, stride: int) -> np.ndarray:
    """Read-only ``(..., out_h, out_w, kernel, kernel)`` window view of
    the last two axes of ``images``, in any memory layout."""
    *lead, h, w = images.shape
    out_h = _out_size(h, kernel, stride, 0)
    out_w = _out_size(w, kernel, stride, 0)
    s = images.strides
    return np.lib.stride_tricks.as_strided(
        images,
        shape=(*lead, out_h, out_w, kernel, kernel),
        strides=s[:-2] + (s[-2] * stride, s[-1] * stride, s[-2], s[-1]),
        writeable=False,
    )


def _scratch(scratch: dict | None, name: str, shape: tuple, dtype) -> np.ndarray:
    """A fresh buffer, or the one ``scratch`` keeps under ``name``."""
    if scratch is None:
        return np.empty(shape, dtype)
    if name not in scratch:
        scratch[name] = np.empty(shape, dtype)
    return scratch[name]


def col2im(columns, image_shape, kernel, stride=1, padding=0, scratch=None):
    """Inverse of :func:`im2col`: scatter-add columns back into images.

    ``image_shape`` is ``lead + (N, C, H, W)``, ``lead`` a stacked
    program's client axis or empty.  Each element gets the add sequence
    of ``padded[..., ki::s, kj::s] += cols[..., ki, kj]`` over ``(ki, kj)``
    from +0.0, so the bits are that loop's, but the adds run over
    contiguous channels-last rows and the result is transposed back into
    its ``(N, C, H+2p, W+2p)`` layout.  ``scratch``, one dict per call
    site of one geometry, keeps the buffers (the result is one of them).
    """
    *lead, n, c, h, w = image_shape
    planes = (*lead, n, c)
    out_h = _out_size(h, kernel, stride, padding)
    out_w = _out_size(w, kernel, stride, padding)
    padded_hw = (h + 2 * padding, w + 2 * padding)
    taps = _scratch(scratch, "taps", (kernel, kernel, out_h, out_w) + planes, columns.dtype)
    cols = columns.reshape(*lead, n, out_h, out_w, c, kernel, kernel)
    np.copyto(taps, np.moveaxis(cols, (-2, -1, -5, -4), (0, 1, 2, 3)))
    accum = _scratch(scratch, "accum", padded_hw + planes, columns.dtype)
    accum.fill(0.0)
    for ki in range(kernel):
        h_stop = ki + stride * out_h
        for kj in range(kernel):
            w_stop = kj + stride * out_w
            accum[ki:h_stop:stride, kj:w_stop:stride] += taps[ki, kj]
    padded = _scratch(scratch, "image", planes + padded_hw, columns.dtype)
    np.copyto(padded, np.moveaxis(accum, (0, 1), (-2, -1)))
    if padding > 0:
        return padded[..., padding:-padding, padding:-padding]
    return padded


# ----------------------------------------------------------------------
# Convolution
# ----------------------------------------------------------------------
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
    n, c, h, w = x.shape
    out_channels, in_channels, kernel, kernel2 = weight.shape
    if kernel != kernel2:
        raise ValueError("only square kernels are supported")
    if in_channels != c:
        raise ValueError(f"input has {c} channels, weight expects {in_channels}")
    out_h = _out_size(h, kernel, stride, padding)
    out_w = _out_size(w, kernel, stride, padding)

    columns = im2col(x.data, kernel, stride, padding)
    flat_weight = weight.data.reshape(out_channels, -1)
    out_flat = columns @ flat_weight.T
    if bias is not None:
        out_flat = out_flat + bias.data
    out_data = (
        out_flat.reshape(n, out_h, out_w, out_channels).transpose(0, 3, 1, 2)
    )
    out = Tensor(out_data)

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad):
        grad_flat = grad.transpose(0, 2, 3, 1).reshape(-1, out_channels)
        if weight.requires_grad:
            grad_weight = grad_flat.T @ columns
            weight._accumulate(grad_weight.reshape(weight.shape), fresh=True)
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad_flat.sum(axis=0), fresh=True)
        if x.requires_grad:
            grad_columns = grad_flat @ flat_weight
            x._accumulate(
                col2im(grad_columns, (n, c, h, w), kernel, stride, padding), fresh=True
            )

    meta = {
        "stride": stride,
        "padding": padding,
        "kernel": kernel,
        "image_shape": (n, c, h, w),
        "out_shape": (n, out_channels, out_h, out_w),
        "has_bias": bias is not None,
    }
    return out._attach(parents, backward, "conv2d", meta)


# ----------------------------------------------------------------------
# Pooling
# ----------------------------------------------------------------------
def max_pool_forward(images, kernel, stride, scratch=None):
    """``(out, arg)``: each window's max and the tap index argmax picks.

    ``images`` is ``(..., H, W)`` in any layout, ``out`` C-contiguous.
    The windows are copied once into a contiguous ``(k*k, windows)`` tap
    matrix, walked in tap order with argmax's rule: a tap wins unless it
    is ``<=`` the running max or that max is NaN (ties keep the first tap,
    the first NaN wins).  Comparisons ignore zero signs and NaN payloads,
    so ``np.maximum`` serves as the running max, and the winners' bits are
    gathered at the end.  ``scratch`` is as in :func:`col2im`.
    """
    windows = np.moveaxis(sliding_windows(images, kernel, stride), (-2, -1), (0, 1))
    taps = _scratch(scratch, "taps", windows.shape, images.dtype)
    np.copyto(taps, windows)
    taps = taps.reshape(kernel * kernel, -1)
    count = taps.shape[1]
    running = taps[0].copy()
    arg = _scratch(scratch, "arg", (count,), np.intp)
    arg.fill(0)
    for tap in range(1, kernel * kernel):
        row = taps[tap]
        wins = ~(row <= running) & (running == running)
        # Taps ascend, so "wins ? tap : arg" is a max.
        np.maximum(arg, wins * tap, out=arg)
        np.maximum(running, row, out=running)
    out = _scratch(scratch, "out", windows.shape[2:], images.dtype)
    np.take(taps.reshape(-1), arg * count + np.arange(count), out=out.reshape(-1))
    return out, arg


def max_pool_backward(grad, arg, image_shape, kernel, stride, scratch=None):
    """The C-contiguous image gradient of :func:`max_pool_forward`.

    Each window's gradient is added, into a +0.0 image, at the element
    its ``arg`` picked: col2im's bits for one-hot gradient columns (``0.0
    + g`` flushes ``-0.0``).  col2im adds an element's contributions in
    tap order, and a later tap is an earlier window, so overlapping
    windows are added in reverse.
    """
    *lead, h, w = image_shape
    out_h = _out_size(h, kernel, stride, 0)
    out_w = _out_size(w, kernel, stride, 0)
    corner = (
        np.arange(math.prod(lead))[:, None, None] * (h * w)
        + np.arange(out_h)[:, None] * (stride * w)
        + np.arange(out_w) * stride
    ).reshape(-1)
    offset = (np.arange(kernel)[:, None] * w + np.arange(kernel)).reshape(-1)
    index = corner + offset[arg]
    image = _scratch(scratch, "image", tuple(image_shape), grad.dtype)
    image.fill(0.0)
    np.add.at(image.reshape(-1), index[::-1], grad.reshape(-1)[::-1])
    return image


def max_pool2d(x: Tensor, kernel: int, stride: int | None = None) -> Tensor:
    """Max pooling over non-overlapping (by default) windows."""
    if stride is None:
        stride = kernel
    out_data, arg = max_pool_forward(x.data, kernel, stride)
    out = Tensor(out_data)

    def backward(grad):
        if x.requires_grad:
            x._accumulate(
                max_pool_backward(grad, arg, x.shape, kernel, stride), fresh=True
            )

    meta = {"kernel": kernel, "stride": stride, "image_shape": x.shape}
    return out._attach((x,), backward, "max_pool2d", meta)


def global_avg_pool2d(x: Tensor) -> Tensor:
    """Average over the full spatial extent, returning ``(N, C)``."""
    n, c, h, w = x.shape
    return x.reshape(n, c, h * w).mean(axis=2)


# ----------------------------------------------------------------------
# Cross-entropy and the linear layer
# ----------------------------------------------------------------------
def cross_entropy(logits: Tensor, targets: np.ndarray, reduction: str = "mean") -> Tensor:
    """Softmax cross-entropy with integer class targets.

    Forward and backward are fused into a single graph node: the loss is
    computed from the log-sum-exp directly and the backward pass uses the
    closed form ``softmax - onehot`` — no intermediate log-softmax tensor
    or advanced-indexing node is materialized, which removes two ``(N, C)``
    allocations per training step on the local-training hot path.

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
    n = logits.shape[0]
    if targets.shape[0] != n:
        raise ValueError("logits and targets disagree on batch size")
    if reduction not in ("none", "sum", "mean"):
        raise ValueError(f"unknown reduction {reduction!r}")

    rows = np.arange(n)
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    sumexp = exp.sum(axis=1, keepdims=True)
    # -log p_target = log-sum-exp - shifted logit at the target class.
    losses = np.log(sumexp[:, 0]) - shifted[rows, targets]
    if reduction == "none":
        out = Tensor(losses)
    elif reduction == "sum":
        out = Tensor(losses.sum())
    else:
        out = Tensor(losses.mean())

    def backward(grad):
        if not logits.requires_grad:
            return
        # d loss_i / d logits_i = softmax_i - onehot(target_i), scaled by
        # the incoming gradient (per-sample for "none", scalar otherwise).
        if reduction == "none":
            scale = np.asarray(grad).reshape(n, 1)
        elif reduction == "mean":
            scale = np.asarray(grad) / n
        else:
            scale = np.asarray(grad)
        # exp is ours alone and dead after this single-use backward pass,
        # so the softmax can be formed in place.
        softmax = np.divide(exp, sumexp, out=exp)
        grad_logits = softmax * scale
        if reduction == "none":
            grad_logits[rows, targets] -= scale[:, 0]
        else:
            grad_logits[rows, targets] -= scale
        logits._accumulate(grad_logits, fresh=True)

    return out._attach(
        (logits,), backward, "cross_entropy", {"reduction": reduction, "targets": targets}
    )


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Affine map ``x @ weight.T + bias`` (PyTorch weight layout), one op.

    Each array call is the one a transpose -> matmul -> add composition
    of autograd ops would make, on the same operands and layouts, so the
    bits are that composition's;
    the weight gradient is handed over as the transposed view of
    ``x.T @ grad``, F-ordered, just as the composition leaves it.
    """
    out_data = x.data @ weight.data.T
    if bias is not None:
        out_data += bias.data
    out = Tensor(out_data)
    parents = (x, weight) if bias is None else (x, weight, bias)
    weight_t_shape = weight.data.T.shape

    def backward(grad):
        if x.requires_grad:
            x._accumulate(grad @ weight.data, fresh=True)
        if weight.requires_grad:
            if x.data.ndim == 1:
                grad_t = np.outer(x.data, grad)
            else:
                grad_t = _unbroadcast(_swap_last(x.data) @ grad, weight_t_shape)
            weight._accumulate(grad_t.T, fresh=True)
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad)

    return out._attach(parents, backward, "linear")

