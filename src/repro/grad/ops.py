"""The op table: one object per op kind, for eager autograd and replay.

Every op the library emits is one registered :class:`Op` in :data:`OPS`:
a forward and a backward kernel over plain arrays.  Two bindings run
the same object.  Eager autograd (:func:`repro.grad.tensor._apply`) calls
its forward on tensor payloads with ``lead = ()`` and ``scratch = None``
and records ``(op, ins, ctx, meta, need)`` on the output; backward calls
``op.backward`` from that record and hands the gradients to
``Tensor._accumulate``.  The capture compiler binds it
to arena slots with ``lead = ()`` (a serial program) or ``(K,)`` (a
stacked one) and a per-record ``scratch`` dict, and hands the gradients
to the program's accumulator.  So eager, compiled and stacked runs make
the same NumPy calls on the same layouts by construction, not by two
copies kept in step.

Kernel contract
---------------
``forward(ins, meta, lead, scratch) -> (out, ctx)``: ``ins`` are the
parents' arrays, ``meta`` the op's recorded arguments, ``ctx`` whatever
the backward kernel needs beyond its inputs.
``backward(grad, ins, ctx, meta, need, lead, scratch)`` returns one
``(grad_i, fresh_i)`` or None per parent; ``need`` says which parents
require grad, ``fresh_i`` that no live gradient shares ``grad_i`` (a
fresh array, a kept buffer, or a view of a gradient nothing reads again),
so the first accumulation may adopt it instead of copying.

Kernels index from the right (ellipsis, negative axes) or offset by
``len(lead)``, so a serial program issues exactly the single-client NumPy
calls (there is no ``K = 1`` axis: a batched GEMM need not match the 2-D
one bit for bit, see :func:`repro.grad.capture.stacked_matmul_is_exact`).

Buffers
-------
``scratch=None`` allocates fresh arrays.  A dict keeps them: each kernel
asks :func:`_into` / :func:`_scratch` for a named buffer, allocated on
the first call and rewritten in place after that.  A compiled record's
dict starts empty, so every kept buffer, outputs included, is allocated
by the kernel that writes it, in the layout eager gives.  The one
exception is eager im2col, which keeps its column buffers in a pool of
its own (:func:`_column_buffer`) because it is faster: taking them from
:func:`_scratch` instead made the paper CNN's eager step 1.10-1.27x
slower (``make ab-step``: 30 alternated blocks at 1 BLAS thread on a
2-CPU Xeon host, median ratios of three runs, e.g. 5 816 -> 6 473 us)
and left the adult MLP, which has no conv, at 0.97-1.00x.

Adding a kind means one :func:`_op`-registered class here, one row in
``tests/grad/test_op_table.py`` and one model that emits it.
"""

from __future__ import annotations

import math

import numpy as np


class Op:
    """One op kind: its two kernels.

    ``stacked_rank`` is the least base rank the first input needs in a
    stacked program.
    """

    def __init__(self, kind, *, stacked_rank=0):
        self.kind = kind
        self.stacked_rank = stacked_rank

    def forward(self, ins, meta, lead, scratch):
        raise NotImplementedError

    def backward(self, grad, ins, ctx, meta, need, lead, scratch):
        raise NotImplementedError


#: every op kind the library emits
OPS: dict[str, Op] = {}


def _op(kind, *, stacked_rank=0):
    """Register an instance of the decorated :class:`Op` subclass as *the*
    entry for ``kind``."""

    def register(cls):
        if kind in OPS:
            raise ValueError(f"op kind {kind!r} registered twice")
        OPS[kind] = cls(kind, stacked_rank=stacked_rank)
        return cls

    return register


# ----------------------------------------------------------------------
# Buffers and shape helpers
# ----------------------------------------------------------------------
def _scratch(scratch: dict | None, name: str, shape: tuple, dtype) -> np.ndarray:
    """A fresh buffer, or the one ``scratch`` keeps under ``name``."""
    if scratch is None:
        return np.empty(shape, dtype)
    if name not in scratch:
        scratch[name] = np.empty(shape, dtype)
    return scratch[name]


def _into(scratch: dict | None, name: str, fn, *args, **kwargs):
    """``fn(*args, **kwargs)``: fresh without ``scratch``, else written
    ``out=`` the buffer kept under ``name``.

    A missing buffer is ``fn``'s own first result, so it has exactly the
    layout a fresh call gives.  ``asarray`` because ufuncs return 0-d
    results as NumPy scalars, which no later call could write through.
    """
    if scratch is None:
        return fn(*args, **kwargs)
    buf = scratch.get(name)
    if buf is None:
        buf = scratch[name] = np.asarray(fn(*args, **kwargs))
    else:
        fn(*args, out=buf, **kwargs)
    return buf


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...], lead: int = 0) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing NumPy broadcasting.

    Broadcasting may have (a) prepended dimensions and (b) stretched
    size-1 dimensions; both must be summed out so the gradient matches
    the original operand's shape.  The first ``lead`` axes (the client
    axis of a stacked program) are never broadcast: prepended
    dimensions sit right after them.
    """
    if grad.shape == shape:
        return grad
    # Sum out prepended dimensions.
    extra_dims = grad.ndim - len(shape)
    if extra_dims > 0:
        grad = grad.sum(axis=tuple(range(lead, lead + extra_dims)))
    # Sum over dimensions that were stretched from size 1.
    stretched = tuple(
        i for i in range(lead, len(shape)) if shape[i] == 1 and grad.shape[i] != 1
    )
    if stretched:
        grad = grad.sum(axis=stretched, keepdims=True)
    return grad.reshape(shape)


def _perm(n_lead: int, *axes: int) -> tuple:
    """A transpose of the base ``axes`` that leaves the lead axes in place."""
    return tuple(range(n_lead)) + tuple(n_lead + ax for ax in axes)


def _out_size(size: int, kernel: int, stride: int, padding: int) -> int:
    return (size + 2 * padding - kernel) // stride + 1


# ----------------------------------------------------------------------
# Array kernels
# ----------------------------------------------------------------------
def relu_forward(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``np.where(x > 0, x, 0.0)`` bit for bit, in ``x``'s memory order,
    ~10x cheaper: ``fmax`` maps NaN to 0, and ``+= 0.0`` flushes the
    ``-0.0`` that ``fmax(-0.0, 0.0)`` may return."""
    out = np.fmax(x, 0.0, out=out)
    out += 0.0
    return out


def relu_mask(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """1.0 where ``x > 0``, else 0.0, in ``x``'s dtype and memory order."""
    if out is None:
        return (x > 0).astype(x.dtype)
    return np.greater(x, 0, out=out)


#: Max pooled buffers per (shape, kernel, stride, padding) key; beyond
#: this, untracked fresh arrays are allocated (protects code that trains
#: without ever calling ``zero_grad``, which would otherwise grow the pool
#: without bound).
_POOL_CAP = 32

#: Eager im2col's reusable column buffers, keyed by the full geometry of
#: the call.  Training batches have fixed shapes, so after the first step
#: every im2col on the hot path writes into an existing buffer instead of
#: allocating the largest temporary of the whole forward pass.  Buffers
#: are recycled per *slot*: each call in grad mode claims the next slot
#: for its key (the backward closure holds the columns until the backward
#: pass runs), and :func:`reset_im2col_workspace` — wired into
#: ``Optimizer.zero_grad`` / ``Module.zero_grad``, i.e. the training-step
#: boundary — rewinds the cursors once the previous step's graph is dead.
_COLUMN_POOL: dict[tuple, list[np.ndarray]] = {}
_COLUMN_CURSOR: dict[tuple, int] = {}
#: Eager zero-padded input scratch, reusable immediately (only read during
#: the copy into columns, never captured by a backward closure).  The zero
#: border is written once; only the interior is refreshed per call.
_PADDED_SCRATCH: dict[tuple, np.ndarray] = {}


def reset_im2col_workspace() -> None:
    """Mark pooled im2col buffers reusable (called at step boundaries)."""
    _COLUMN_CURSOR.clear()


def _column_buffer(key: tuple, shape: tuple, dtype) -> np.ndarray:
    # A call-time import: repro.grad.tensor imports this module.
    from repro.grad.tensor import is_grad_enabled

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


def im2col(images, kernel, stride=1, padding=0, scratch=None):
    """Rearrange sliding ``kernel x kernel`` patches into columns.

    ``images`` is ``lead + (N, C, H, W)``; the result is the
    ``lead + (N * out_h * out_w, C * kernel * kernel)`` matrix view of a
    kept ``lead + (N, out_h, out_w, C, k, k)`` buffer: ``scratch``'s, or
    without one the eager column pool's.
    """
    *lead, n, c, h, w = images.shape
    lead = tuple(lead)
    out_h = _out_size(h, kernel, stride, padding)
    out_w = _out_size(w, kernel, stride, padding)
    dtype = np.dtype(images.dtype)
    if padding > 0:
        if scratch is None:
            store, key = _PADDED_SCRATCH, (n, c, h, w, padding, dtype.str)
        else:
            store, key = scratch, "padded"
        padded = store.get(key)
        if padded is None:
            padded = store[key] = np.zeros(
                lead + (n, c, h + 2 * padding, w + 2 * padding), dtype=dtype
            )
        padded[..., padding : padding + h, padding : padding + w] = images
        images = padded
    shape = lead + (n, out_h, out_w, c, kernel, kernel)
    if scratch is None:
        key = (n, c, h, w, kernel, stride, padding, dtype.str)
        columns = _column_buffer(key, shape, dtype)
    else:
        columns = _scratch(scratch, "cols", shape, dtype)
    windows = sliding_windows(images, kernel, stride)
    np.copyto(columns, windows.transpose(_perm(len(lead), 0, 2, 3, 1, 4, 5)))
    return columns.reshape(lead + (n * out_h * out_w, c * kernel * kernel))


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


def col2im(columns, image_shape, kernel, stride=1, padding=0, scratch=None):
    """Inverse of :func:`im2col`: scatter-add columns back into images.

    ``image_shape`` is ``lead + (N, C, H, W)``, ``lead`` a stacked
    program's client axis or empty.  Each element gets the add sequence
    of ``padded[..., ki::s, kj::s] += cols[..., ki, kj]`` over ``(ki, kj)``
    from +0.0, so the bits are that loop's, but the adds run over
    contiguous channels-last rows and the result is transposed back into
    its ``(N, C, H+2p, W+2p)`` layout.  ``scratch`` keeps the buffers
    ("taps", "accum", "image"; the result is a view of the last).
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


def max_pool_forward(images, kernel, stride, scratch=None):
    """``(out, arg)``: each window's max and the tap index argmax picks.

    ``images`` is ``(..., H, W)`` in any layout, ``out`` C-contiguous.
    The windows are copied once into a contiguous ``(k*k, windows)`` tap
    matrix, walked in tap order with argmax's rule: a tap wins unless it
    is ``<=`` the running max or that max is NaN (ties keep the first tap,
    the first NaN wins).  Comparisons ignore zero signs and NaN payloads,
    so ``np.maximum`` serves as the running max, and the winners' bits are
    gathered at the end.  ``scratch`` keeps "taps", "arg" and "out".
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
    windows are added in reverse.  ``scratch`` keeps "image".
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


# ----------------------------------------------------------------------
# The op kinds
# ----------------------------------------------------------------------
@_op("add")
class _Add(Op):
    def forward(self, ins, meta, lead, scratch):
        return _into(scratch, "out", np.add, *ins), None

    def backward(self, grad, ins, ctx, meta, need, lead, scratch):
        # The same grad object goes to both parents: never adopt it.
        return [(grad, False) if need[0] else None, (grad, False) if need[1] else None]


@_op("sub")
class _Sub(Op):
    def forward(self, ins, meta, lead, scratch):
        return _into(scratch, "out", np.subtract, *ins), None

    def backward(self, grad, ins, ctx, meta, need, lead, scratch):
        return [
            (grad, False) if need[0] else None,
            (_into(scratch, "neg", np.negative, grad), True) if need[1] else None,
        ]


@_op("mul")
class _Mul(Op):
    def forward(self, ins, meta, lead, scratch):
        return _into(scratch, "out", np.multiply, *ins), None

    def backward(self, grad, ins, ctx, meta, need, lead, scratch):
        a, b = ins
        return [
            (_into(scratch, "ga", np.multiply, grad, b), True) if need[0] else None,
            (_into(scratch, "gb", np.multiply, grad, a), True) if need[1] else None,
        ]


@_op("div")
class _Div(Op):
    def forward(self, ins, meta, lead, scratch):
        return _into(scratch, "out", np.divide, *ins), None

    def backward(self, grad, ins, ctx, meta, need, lead, scratch):
        a, b = ins
        return [
            (_into(scratch, "ga", np.divide, grad, b), True) if need[0] else None,
            (-grad * a / (b**2), True) if need[1] else None,
        ]


@_op("pow")
class _Pow(Op):
    def forward(self, ins, meta, lead, scratch):
        # `x ** e` has ufunc fast paths `np.power` lacks.
        return ins[0] ** meta["exponent"], None

    def backward(self, grad, ins, ctx, meta, need, lead, scratch):
        exponent = meta["exponent"]
        return [(grad * exponent * ins[0] ** (exponent - 1), True)]


@_op("relu")
class _Relu(Op):
    def forward(self, ins, meta, lead, scratch):
        return _into(scratch, "out", relu_forward, ins[0]), None

    def backward(self, grad, ins, ctx, meta, need, lead, scratch):
        # The input is still intact at backward time, so the mask is
        # derived here and never made in inference runs.  A 1.0/0.0 mask
        # in x's layout: grad * (x > 0)'s products and layout, without the
        # bool->float cast that sends the multiply down NumPy's buffered
        # loop (several times slower where grad and x differ in layout).
        mask = _into(scratch, "mask", relu_mask, ins[0])
        return [(_into(scratch, "grad", np.multiply, grad, mask), True)]


def _lead_axis(axis, lead):
    """A reduction ``axis`` of the base shape, as an axis of ``lead + base``."""
    if axis is None or not lead:
        return axis
    if isinstance(axis, tuple):
        return tuple(ax + len(lead) if ax >= 0 else ax for ax in axis)
    return axis + len(lead) if axis >= 0 else axis


@_op("sum")
class _Sum(Op):
    def forward(self, ins, meta, lead, scratch):
        (x,) = ins
        axis, keepdims = _lead_axis(meta["axis"], lead), meta["keepdims"]
        if axis is None and lead:
            # A full reduce must not cross the client axis: it becomes a
            # per-client reduce over the flattened base, whose C-order
            # element sequence matches the serial one slice for slice.
            # (Only a compiled program has lead axes, so scratch is a dict.)
            ones = (1,) * (x.ndim - len(lead)) if keepdims else ()
            out = _scratch(scratch, "out", lead + ones, x.dtype)
            x.reshape(lead + (-1,)).sum(axis=-1, out=out.reshape(lead))
            return out, None
        # ``np.add.reduce`` is what ``x.sum`` runs, minus the wrapper.
        out = _into(scratch, "out", np.add.reduce, x, axis=axis, keepdims=keepdims)
        return out, None

    def backward(self, grad, ins, ctx, meta, need, lead, scratch):
        (x,) = ins
        axis = _lead_axis(meta["axis"], lead)
        if axis is None:
            grad = grad.reshape(lead + (1,) * (x.ndim - len(lead)))
        elif not meta["keepdims"]:
            grad = np.expand_dims(grad, axis=axis)
        return [(np.broadcast_to(grad, x.shape), False)]


@_op("reshape")
class _Reshape(Op):
    def forward(self, ins, meta, lead, scratch):
        return ins[0].reshape(lead + meta["shape"]), None

    def backward(self, grad, ins, ctx, meta, need, lead, scratch):
        # The reshaped view is exclusively ours by now (its owner's
        # gradient is never read again this step), so it is safe to adopt.
        return [(grad.reshape(ins[0].shape), True)]


@_op("linear", stacked_rank=2)
class _Linear(Op):
    """Affine map ``x @ weight.T + bias`` (PyTorch weight layout).

    Each array call is the one a transpose -> matmul -> add composition
    of ops would make, on the same operands and layouts, so the bits are
    that composition's; the weight gradient is handed over as the
    transposed view of ``x.T @ grad``, just as the composition leaves it.
    """

    def forward(self, ins, meta, lead, scratch):
        out = _into(scratch, "out", np.matmul, ins[0], ins[1].swapaxes(-1, -2))
        if len(ins) == 3:
            np.add(out, ins[2], out=out)
        return out, None

    def backward(self, grad, ins, ctx, meta, need, lead, scratch):
        x, w = ins[0], ins[1]
        grads = [None] * len(ins)
        if need[0]:
            grads[0] = (_into(scratch, "gx", np.matmul, grad, w), True)
        if need[1]:
            if x.ndim == 1:
                grad_t = np.outer(x, grad)
            else:
                grad_t = _into(scratch, "gw", np.matmul, x.swapaxes(-1, -2), grad)
            wt_shape = w.shape[:-2] + (w.shape[-1], w.shape[-2])
            if grad_t.shape != wt_shape:
                grad_t = _unbroadcast(grad_t, wt_shape, len(lead))
            grads[1] = (grad_t.swapaxes(-1, -2), True)
        if len(ins) == 3 and need[2]:
            # A 1-D bias's gradient is the sum over every axis but the
            # last: what unbroadcasting ``grad`` to it would run.  Any other
            # bias (of another rank, or a stacked program's (K, 1, ..., out)
            # view) and a 1-D input's bias, whose gradient is ``grad`` as
            # it stands (an empty reduce would add +0.0 and flip a -0.0),
            # get ``grad`` for the accumulator to unbroadcast.
            if ins[2].ndim == 1 and grad.ndim > 1:
                axes = tuple(range(grad.ndim - 1))
                grads[2] = (_into(scratch, "gb", np.add.reduce, grad, axes), True)
            else:
                grads[2] = (grad, False)
        return grads


@_op("conv2d")
class _Conv2d(Op):
    """Cross-correlation as im2col + one GEMM; ``ctx`` is the columns."""

    def forward(self, ins, meta, lead, scratch):
        x, w, *bias = ins
        stride, padding = meta["stride"], meta["padding"]
        *_, n, _, h, width = x.shape
        out_channels, kernel = w.shape[-4], w.shape[-1]
        out_h = _out_size(h, kernel, stride, padding)
        out_w = _out_size(width, kernel, stride, padding)
        columns = im2col(x, kernel, stride, padding, scratch)
        flat_weight = w.reshape(w.shape[:-3] + (-1,))
        out = _into(scratch, "mm", np.matmul, columns, flat_weight.swapaxes(-1, -2))
        if bias:
            # A stacked bias arrives aligned to the 4-D output; it meets
            # the 2-D product here.
            b = bias[0]
            if b.ndim > 1:
                b = b.reshape(lead + (1, out_channels))
            out = _into(scratch, "biased", np.add, out, b)
        out = out.reshape(lead + (n, out_h, out_w, out_channels))
        return out.transpose(_perm(len(lead), 0, 3, 1, 2)), columns

    def backward(self, grad, ins, columns, meta, need, lead, scratch):
        x, w, *bias = ins
        out_channels = w.shape[-4]
        grad_flat = grad.transpose(_perm(len(lead), 0, 2, 3, 1)).reshape(
            lead + (-1, out_channels)
        )
        grads = [None] * len(ins)
        if need[1]:
            grad_w = _into(scratch, "gw", np.matmul, grad_flat.swapaxes(-1, -2), columns)
            grads[1] = (grad_w.reshape(lead + w.shape[-4:]), True)
        if bias and need[2]:
            grads[2] = (grad_flat.sum(axis=-2), True)
        if need[0]:
            flat_weight = w.reshape(w.shape[:-3] + (-1,))
            grad_columns = _into(scratch, "gc", np.matmul, grad_flat, flat_weight)
            grads[0] = (
                col2im(
                    grad_columns, x.shape, w.shape[-1], meta["stride"],
                    meta["padding"], scratch,
                ),
                True,
            )
        return grads


@_op("max_pool2d")
class _MaxPool2d(Op):
    """``ctx`` is the argmax tap of every window."""

    def forward(self, ins, meta, lead, scratch):
        return max_pool_forward(ins[0], meta["kernel"], meta["stride"], scratch)

    def backward(self, grad, ins, arg, meta, need, lead, scratch):
        # Only the input's shape is read.
        image = max_pool_backward(
            grad, arg, ins[0].shape, meta["kernel"], meta["stride"], scratch
        )
        return [(image, True)]


#: eager cross-entropy's row indices, one read-only ``(arange(n),)`` per
#: batch size
_ROW_INDEX: dict[int, tuple] = {}


def _target_index(scratch, lead, n):
    """Open-mesh indices of every (client, row): ``x[index + (targets,)]``
    picks each row's target-class entry."""
    if scratch is None:
        if lead:
            return np.ix_(*map(np.arange, lead + (n,)))
        index = _ROW_INDEX.get(n)
        if index is None:
            rows = np.arange(n)
            rows.flags.writeable = False
            index = _ROW_INDEX[n] = (rows,)
        return index
    if "index" not in scratch:
        scratch["index"] = _target_index(None, lead, n)
    return scratch["index"]


@_op("cross_entropy")
class _CrossEntropy(Op):
    """Softmax cross-entropy over the last axis, fused into one node.

    The loss is computed from the log-sum-exp directly and the backward
    pass uses the closed form ``softmax - onehot``; ``ctx`` is
    ``(exp, sumexp)``, and the backward forms the softmax in place in
    ``exp``, which nothing reads after it.
    """

    def forward(self, ins, meta, lead, scratch):
        (logits,) = ins
        index = _target_index(scratch, lead, logits.shape[-2]) + (meta["targets"],)
        # The ufunc reductions ``x.max`` / ``x.sum`` run, minus the wrappers.
        top = _into(scratch, "max", np.maximum.reduce, logits, -1, keepdims=True)
        shifted = _into(scratch, "shifted", np.subtract, logits, top)
        exp = _into(scratch, "exp", np.exp, shifted)
        sumexp = _into(scratch, "sumexp", np.add.reduce, exp, -1, keepdims=True)
        log_sum = _into(scratch, "log_sum", np.log, sumexp[..., 0])
        # -log p_target = log-sum-exp - shifted logit at the target class.
        losses = _into(scratch, "losses", np.subtract, log_sum, shifted[index])
        # The ufunc calls ``losses.sum`` / ``losses.mean`` make, minus the
        # wrappers.  The divide runs in the losses' dtype on every NumPy
        # (a float32 scalar over an int promotes to float64 before NumPy 2):
        # correctly rounded, so the bits of mean's float64 divide-and-round.
        if meta["reduction"] == "sum":
            losses = np.add.reduce(losses, -1)
        elif meta["reduction"] == "mean":
            losses = np.true_divide(
                np.add.reduce(losses, -1), losses.shape[-1], dtype=losses.dtype
            )
        return losses, (exp, sumexp)

    def backward(self, grad, ins, ctx, meta, need, lead, scratch):
        exp, sumexp = ctx
        n = exp.shape[-2]
        reduction = meta["reduction"]
        # d loss_i / d logits_i = softmax_i - onehot(target_i), scaled by
        # the incoming gradient (per-sample for "none", scalar otherwise).
        grad = np.asarray(grad)
        scale = (grad / n if reduction == "mean" else grad).reshape(
            lead + ((n, 1) if reduction == "none" else (1, 1))
        )
        softmax = np.divide(exp, sumexp, out=exp)
        grad_logits = _into(scratch, "grad", np.multiply, softmax, scale)
        index = _target_index(scratch, lead, n) + (meta["targets"],)
        grad_logits[index] -= scale[..., 0]
        return [(grad_logits, True)]
