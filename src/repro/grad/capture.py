"""Shape-specialized step capture & replay for :mod:`repro.grad`.

Every local SGD step traces an identical ``Tensor`` closure graph: the
same ops in the same order over the same shapes, differing only in the
batch contents and the parameter values.  This module records that trace
once — into a :class:`CapturedStep` — and *replays* it on later steps
against a preallocated buffer arena, skipping per-step Python closure
construction, graph bookkeeping, and most ``np.zeros``/``astype(copy=True)``
allocations.

Bitwise safety
--------------
Replay is bitwise-identical to eager execution because every replay
kernel runs the *same NumPy calls on arrays of the same memory layout*:

* forward output buffers are ``np.empty_like`` copies of the eager
  outputs (layout-preserving), filled with the same ufunc/``matmul``/
  reduction calls via ``out=``;
* ReLU, the max pool and col2im call the eager kernels themselves with
  kept buffers; the other composites (conv, cross-entropy) warm theirs
  on the first replay with the literal eager expression, then reuse them
  with ``out=``, so reductions see the same strides and bits;
* gradient accumulation mirrors :meth:`Tensor._accumulate`: the first
  write per step copies (or ``np.copyto``-refreshes) the freshly
  computed value, later writes use ``+=`` in the same order as the eager
  reverse-topological pass, which is replicated verbatim at compile
  time.

Program optimizer
-----------------
Between compile and first replay an optimizer pass (on by default)
plans the buffer arena: liveness analysis plus interval-graph coloring
lets compile-time output buffers share storage once their last reader
has run, and identical small constants are interned across programs.
Optimized programs run the same kernels in the same order on
identically-laid-out buffers, so replay stays bitwise identical;
``optimize=False`` reproduces the unplanned programs exactly.

One op table, one compiler
--------------------------
Every op kind is one :func:`_op`-decorated builder that returns its
forward and backward replay closures and declares its planner facts.
Builders are written over ``lead``, the compiler's leading axes: ``()``
for a serial :class:`CapturedStep`, ``(K,)`` for a :class:`StackedStep`
that runs K clients' steps as single ``(K, ...)`` NumPy ops.  They
index from the right or offset by ``len(lead)``, so a serial program
issues exactly the single-client NumPy calls (there is no ``K = 1``
axis: a batched GEMM need not match the 2-D one bit for bit, see
:func:`stacked_matmul_is_exact`).

Fallback
--------
Capture is best-effort: a step it declines runs eagerly, and correctness
never depends on capture succeeding.  Every op the library emits has a
row in the table, so only two things decline: a batch with fewer rows
than the engine's program (a loader's ragged tail), and a tape the
compiler rejects with a :class:`CaptureError` (batch norm in a stacked
program, say), whose reason is memoized per shape.  :meth:`Tape.record`
still refuses a kind the table lacks, which keeps eager autograd and
the table in step.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.grad import functional as F
from repro.grad import tensor as tensor_mod
from repro.grad.nn.module import Parameter
from repro.grad.serialize import column_views
from repro.grad.tensor import Tensor, _swap_last, _unbroadcast, relu_forward


class CaptureError(RuntimeError):
    """Raised at compile time when a tape cannot be turned into a program."""


class _OpRecord:
    __slots__ = ("kind", "out", "parents", "meta")

    def __init__(self, kind, out, parents, meta):
        self.kind = kind
        self.out = out
        self.parents = parents
        self.meta = meta


class Tape:
    """Passive recording of one eager forward pass.

    Installed via :func:`repro.grad.tensor._set_tape`; every op appends a
    record (creation order == a valid topological order).  Any op without
    a capture kernel invalidates the whole tape.
    """

    __slots__ = ("entries", "buffer_leaves", "failed")

    def __init__(self):
        self.entries: list = []
        self.buffer_leaves: list = []
        self.failed: str | None = None

    def record(self, kind, out, parents, meta) -> None:
        if self.failed is not None:
            return
        if kind not in _OPS:
            self.failed = f"op kind {kind!r} has no capture kernel"
            return
        self.entries.append(("op", _OpRecord(kind, out, parents, meta)))

    def record_bn_update(self, module, mean, var, count) -> None:
        """Batch-norm running-stat side effect (replayed per step)."""
        if self.failed is None:
            self.entries.append(("bn", (module, mean, var, count)))

    def register_buffer_leaf(self, tensor, module, name, shape) -> None:
        """A leaf that must be re-read from ``module`` on every replay."""
        if self.failed is None:
            self.buffer_leaves.append((tensor, module, name, tuple(shape)))


class _Cell:
    """Lazily-warmed scratch buffer for one backward product."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = None


def _binout(cell: _Cell, fn, x, y):
    """``fn(x, y)`` into a reused buffer; first call allocates eagerly.

    ``asarray`` because ufuncs return 0-d results as NumPy scalars,
    which no later call could write through ``out=``.
    """
    if cell.value is None:
        cell.value = np.asarray(fn(x, y))
    else:
        fn(x, y, out=cell.value)
    return cell.value


def _unout(cell: _Cell, fn, x):
    if cell.value is None:
        cell.value = np.asarray(fn(x))
    else:
        fn(x, out=cell.value)
    return cell.value


# ----------------------------------------------------------------------
# Program optimizer: arena planner, constant interning
# ----------------------------------------------------------------------
class ArenaPlanStats:
    """What the program optimizer did to one compiled program."""

    __slots__ = (
        "peak_bytes",
        "unplanned_bytes",
        "slots_before",
        "slots_after",
        "constants_interned",
    )

    def __init__(
        self,
        *,
        peak_bytes,
        unplanned_bytes,
        slots_before,
        slots_after,
        constants_interned,
    ):
        self.peak_bytes = peak_bytes
        self.unplanned_bytes = unplanned_bytes
        self.slots_before = slots_before
        self.slots_after = slots_after
        self.constants_interned = constants_interned

    @property
    def reduction(self) -> float:
        """Fraction of colorable arena bytes removed by slot sharing."""
        if not self.unplanned_bytes:
            return 0.0
        return 1.0 - self.peak_bytes / self.unplanned_bytes

    def to_dict(self) -> dict:
        return {
            "peak_bytes": int(self.peak_bytes),
            "unplanned_bytes": int(self.unplanned_bytes),
            "reduction": round(self.reduction, 4),
            "slots_before": int(self.slots_before),
            "slots_after": int(self.slots_after),
            "constants_interned": int(self.constants_interned),
        }


def _dense_layout(template: np.ndarray):
    """``template``'s strides when it covers its buffer densely, else None.

    ``np.empty_like`` reproduces permuted-contiguous layouts (e.g. the
    NCHW view of a conv output); such a buffer occupies exactly
    ``nbytes`` of gapless memory, so a carved block can be re-strided to
    an identical layout.  Anything with gaps or negative strides stays
    on a dedicated buffer.
    """
    if template.flags["C_CONTIGUOUS"]:
        return None  # plain reshape covers it
    expected = template.itemsize
    for axis in sorted(range(template.ndim), key=lambda i: template.strides[i]):
        if template.shape[axis] == 1:
            continue
        if template.shape[axis] == 0 or template.strides[axis] != expected:
            return False
        expected *= template.shape[axis]
    return template.strides


class _Alloc:
    """One colorable buffer request with its live interval [birth, last].

    ``strides`` is None for a C-contiguous request, or the exact dense
    strides the carved view must reproduce.
    """

    __slots__ = (
        "shape",
        "dtype",
        "strides",
        "nbytes",
        "birth",
        "last",
        "may_alias",
        "buffer",
    )

    def __init__(self, shape, dtype, strides, birth, may_alias):
        self.shape = tuple(shape)
        self.dtype = np.dtype(dtype)
        self.strides = None if strides is None else tuple(strides)
        self.nbytes = int(np.prod(self.shape, dtype=np.int64)) * self.dtype.itemsize
        self.birth = birth
        self.last = birth
        self.may_alias = may_alias
        self.buffer = None


class _ArenaPlanner:
    """Interval-graph slot coloring over one program's buffer requests.

    Liveness events are collected in program order (forward ops, then
    the scheduled backward ops, then the final read of the program
    output); :meth:`plan` then packs every request into the smallest set
    of byte blocks such that no two requests with overlapping live
    ranges share a block.  A request may land on a block whose current
    tenant dies exactly at the request's birth step only when the
    producing kernel declared ``may_alias`` and the overlay is an exact
    same-shape/dtype in-place write — any other overlap would let a
    kernel scribble over bytes a later reader still needs.
    """

    __slots__ = ("allocs", "blocks", "planned", "_by_slot", "_by_key", "_roots")

    def __init__(self):
        self.allocs: list[_Alloc] = []
        self.blocks: list[dict] = []
        self.planned = False
        self._by_slot: dict[int, _Alloc] = {}
        self._by_key: dict[int, _Alloc] = {}
        self._roots: dict[int, int] = {}

    def _root(self, slot: int) -> int:
        while slot in self._roots:
            slot = self._roots[slot]
        return slot

    def define(self, slot, shape, dtype, step, may_alias, strides=None) -> None:
        alloc = _Alloc(shape, dtype, strides, step, may_alias)
        self.allocs.append(alloc)
        self._by_slot[slot] = alloc

    def define_keyed(self, key, shape, dtype, step, may_alias) -> None:
        """A request not bound to a slot (e.g. a relu backward mask)."""
        alloc = _Alloc(shape, dtype, None, step, may_alias)
        self.allocs.append(alloc)
        self._by_key[key] = alloc

    def view(self, slot, of_slot) -> None:
        """Reads of ``slot`` are reads of ``of_slot``'s storage."""
        self._roots[slot] = of_slot

    def read(self, slot, step) -> None:
        alloc = self._by_slot.get(self._root(slot))
        if alloc is not None and step > alloc.last:
            alloc.last = step

    def plan(self) -> None:
        # Requests were appended in program order, so a single pass sees
        # each one after all earlier births; best fit by capacity keeps
        # the big activation blocks available for later reuse.
        blocks: list[dict] = []
        for alloc in self.allocs:
            best = None
            for block in blocks:
                if block["size"] < alloc.nbytes:
                    continue
                top = block["top"]
                free = block["last"] < alloc.birth or (
                    alloc.may_alias
                    and block["last"] == alloc.birth
                    and top.last == alloc.birth
                    and top.shape == alloc.shape
                    and top.dtype == alloc.dtype
                    and top.strides == alloc.strides
                )
                if free and (best is None or block["size"] < best["size"]):
                    best = block
            if best is None:
                blocks.append(
                    {
                        "size": alloc.nbytes,
                        "last": alloc.last,
                        "top": alloc,
                        "tenants": [alloc],
                    }
                )
            else:
                best["last"] = max(best["last"], alloc.last)
                best["top"] = alloc
                best["tenants"].append(alloc)
        for block in blocks:
            # All tenants carve from offset 0 of one aligned byte block:
            # the views have exactly the shape/strides/dtype a dedicated
            # ``np.empty``/``np.empty_like`` would have, so kernels
            # cannot tell the difference.
            base = np.empty((block["size"],), dtype=np.uint8)
            block["base"] = base
            for tenant in block["tenants"]:
                flat = base[: tenant.nbytes].view(tenant.dtype)
                if tenant.strides is None:
                    tenant.buffer = flat.reshape(tenant.shape)
                else:
                    tenant.buffer = as_strided(
                        flat, shape=tenant.shape, strides=tenant.strides
                    )
        self.blocks = blocks
        self.planned = True

    def buffer(self, slot) -> np.ndarray | None:
        alloc = self._by_slot.get(slot)
        return None if alloc is None else alloc.buffer

    def keyed_buffer(self, key) -> np.ndarray | None:
        alloc = self._by_key.get(key)
        return None if alloc is None else alloc.buffer

    @property
    def dedicated_bytes(self) -> int:
        return sum(alloc.nbytes for alloc in self.allocs)

    @property
    def planned_bytes(self) -> int:
        return sum(block["size"] for block in self.blocks)


_CONSTANT_POOL: dict[tuple, np.ndarray] = {}
_CONSTANT_POOL_MAX_NBYTES = 4096


def _intern_constant(value: np.ndarray) -> tuple[np.ndarray, bool]:
    """A shared read-only snapshot of ``value`` (small constants only).

    Captured programs never write constant slots, so identical eps/scale
    arrays can back every program that needs them; the write lock turns
    any future violation of that invariant into a loud error instead of
    silent cross-program corruption.  Returns ``(array, was_shared)``.
    """
    arr = np.array(value, copy=True)
    if arr.nbytes > _CONSTANT_POOL_MAX_NBYTES:
        return arr, False
    key = (arr.dtype.str, arr.shape, arr.tobytes())
    cached = _CONSTANT_POOL.get(key)
    if cached is not None:
        return cached, True
    arr.setflags(write=False)
    _CONSTANT_POOL[key] = arr
    return arr, False


class CapturedStep:
    """A compiled (forward [+ backward]) program over a buffer arena."""

    __slots__ = (
        "arena",
        "forward_ops",
        "backward_ops",
        "param_refresh",
        "buffer_refresh",
        "param_binds",
        "input_slot",
        "labels_slot",
        "out_slot",
        "gbufs",
        "gseen",
        "gseen_false",
        "seed",
        "acc",
        "stats",
    )

    def __init__(self, **fields):
        for name, value in fields.items():
            setattr(self, name, value)

    def replay_forward(self, features: np.ndarray) -> np.ndarray:
        arena = self.arena
        if self.input_slot is not None:
            arena[self.input_slot] = features
        # Optimizers write parameters in place, but state loads rebind
        # parameters and buffers, so their slots are refreshed from the
        # live objects every replay.
        for slot, param in self.param_refresh:
            arena[slot] = param.data
        for slot, module, name, shape in self.buffer_refresh:
            arena[slot] = getattr(module, name).reshape(shape)
        for op in self.forward_ops:
            op()
        return arena[self.out_slot]

    def replay_step(self, features: np.ndarray, labels: np.ndarray) -> float:
        if self.labels_slot is not None:
            self.arena[self.labels_slot] = labels
        out = self.replay_forward(features)
        loss = float(np.asarray(out).item())
        self.gseen[:] = self.gseen_false
        self.acc(self.out_slot, self.seed)
        for op in self.backward_ops:
            op()
        gbufs = self.gbufs
        for param, slot in self.param_binds:
            param.grad = gbufs[slot]
        return loss


# ----------------------------------------------------------------------
# Stacked-client replay
# ----------------------------------------------------------------------
_STACKED_EXACT: bool | None = None


def stacked_matmul_is_exact() -> bool:
    """Whether this host's batched 3-D matmul is bitwise per-slice exact.

    The stacked kernels turn every 2-D GEMM into one slice of a 3-D
    batched GEMM.  Most BLAS builds dispatch each batch slice to the same
    2-D kernel (exact); some reassociate the reduction for small shapes.
    This probes the actual library once with the three matmul layouts the
    replay uses (forward, dX, dW) so tests and the drift check can pick
    bitwise or tolerance assertions to match reality.
    """
    global _STACKED_EXACT
    if _STACKED_EXACT is None:
        rng = np.random.default_rng(0xC11E27)
        exact = True
        for m, n, p in ((32, 784, 64), (32, 64, 10), (64, 400, 120)):
            x = rng.standard_normal((4, m, n)).astype(np.float32)
            w = rng.standard_normal((4, p, n)).astype(np.float32)
            fwd = x @ w.transpose(0, 2, 1)
            gw = fwd.transpose(0, 2, 1) @ x
            gx = fwd @ w
            for k in range(4):
                exact = (
                    exact
                    and np.array_equal(fwd[k], x[k] @ w[k].T)
                    and np.array_equal(gw[k], fwd[k].T @ x[k])
                    and np.array_equal(gx[k], fwd[k] @ w[k])
                )
        _STACKED_EXACT = bool(exact)
    return _STACKED_EXACT


class StackedStep:
    """A compiled training step batched over a leading client axis.

    Every stacked slot holds a ``(K,) + base`` array.  Parameters live in
    one ``(K, P)`` block *owned by the program*, each parameter's stack a
    column view of it: the caller copies each client's weights in
    (:meth:`param_stack`), a :class:`~repro.grad.optim.StackedSGD` updates
    the whole block in place between steps, and the trained values are
    read back out of the same buffers — rebinding them would break the
    compiled views.
    """

    __slots__ = (
        "arena",
        "forward_ops",
        "backward_ops",
        "param_slots",
        "input_slot",
        "labels_slot",
        "out_slot",
        "gbufs",
        "gseen",
        "gseen_false",
        "seed",
        "acc",
        "stack",
        "stats",
    )

    def __init__(self, **fields):
        for name, value in fields.items():
            setattr(self, name, value)

    @property
    def features(self) -> np.ndarray:
        """The ``(K, batch, ...)`` input buffer; fill one row per client."""
        return self.arena[self.input_slot]

    @property
    def labels(self) -> np.ndarray:
        """The ``(K, batch)`` target buffer; fill one row per client."""
        return self.arena[self.labels_slot]

    def param_stack(self, index: int) -> np.ndarray | None:
        """The ``(K,) + shape`` buffer of parameter ``index`` (in
        ``model.parameters()`` order), or None when the traced step never
        touched that parameter."""
        slot = self.param_slots[index]
        return None if slot is None else self.arena[slot]

    def step(self) -> np.ndarray:
        """One batched SGD step's forward+backward; returns (K,) losses.

        Gradients are left in :meth:`grads`; the returned array belongs
        to the program — consume it before the next call.
        """
        for op in self.forward_ops:
            op()
        self.gseen[:] = self.gseen_false
        self.acc(self.out_slot, self.seed)
        for op in self.backward_ops:
            op()
        return self.arena[self.out_slot]

    def grads(self) -> list:
        """Per-parameter ``(K,) + shape`` gradients, aligned with
        ``model.parameters()``; None entries received no gradient."""
        gbufs = self.gbufs
        return [
            None if slot is None else gbufs[slot] for slot in self.param_slots
        ]


# ----------------------------------------------------------------------
# Op table: one entry per op kind, written once over the lead axes
# ----------------------------------------------------------------------
class _OpSpec(NamedTuple):
    """Everything the compiler knows about one op kind.

    ``build(c, rec, o, *srcs)`` returns the ``(forward, backward)``
    replay closures of one tape record for compiler ``c`` (``o`` and
    ``srcs`` are the output and parent slots); the backward closure is
    only scheduled when some parent requires grad.  Kernels index from
    the right (ellipsis, negative axes) or offset by ``len(c.lead)``,
    so the same builder serves ``lead = ()`` and ``lead = (K,)``.

    The other fields are the planner's contract.  ``may_alias`` asserts
    the forward kernel never reads any input element after writing the
    corresponding output element, so the planner may overlay ``out``
    onto an input buffer whose last reader is this very op (an exact
    same-shape/dtype in-place write).  ``bwd_reads`` lists which arena
    buffers the backward kernel still needs at backward time: ``"in"`` =
    the parent slots, ``"out"`` = the op's own output slot.  ``planned``
    marks kinds whose forward writes a compile-time ``c.out_buf`` (the
    only allocations the planner can color: composites bind views of
    private scratch, ``pow`` rebinds per step).  ``view`` marks ops
    whose output is a view of the input's storage, and ``bwd_mask``
    ones whose backward borrows an input-shaped bool ``c.mask_buf``.
    """

    build: Callable
    may_alias: bool
    bwd_reads: tuple
    planned: bool
    view: bool
    bwd_mask: bool


_OPS: dict[str, _OpSpec] = {}


def _op(kind, *, may_alias, bwd_reads, planned, view=False, bwd_mask=False):
    """Register the decorated builder as *the* entry for op ``kind``."""

    def register(build):
        if kind in _OPS:
            raise ValueError(f"op kind {kind!r} registered twice")
        _OPS[kind] = _OpSpec(build, may_alias, bwd_reads, planned, view, bwd_mask)
        return build

    return register


def _perm(n_lead: int, *axes: int) -> tuple:
    """A transpose of the base ``axes`` that leaves the lead axes in place."""
    return tuple(range(n_lead)) + tuple(n_lead + ax for ax in axes)


def _binary_fwd(c, rec, fn):
    read_a, read_b = c.readers(rec)
    buf = c.out_buf(rec)

    def fwd():
        fn(read_a(), read_b(), out=buf)

    return fwd


@_op("add", may_alias=True, bwd_reads=(), planned=True)
def _add(c, rec, o, a, b):
    acc, gbufs = c.acc, c.gbufs
    need_a, need_b = (p.requires_grad for p in rec.parents)

    def bwd():
        g = gbufs[o]
        if need_a:
            acc(a, g)
        if need_b:
            acc(b, g)

    return _binary_fwd(c, rec, np.add), bwd


@_op("sub", may_alias=True, bwd_reads=(), planned=True)
def _sub(c, rec, o, a, b):
    acc, gbufs, cell = c.acc, c.gbufs, _Cell()
    need_a, need_b = (p.requires_grad for p in rec.parents)

    def bwd():
        g = gbufs[o]
        if need_a:
            acc(a, g)
        if need_b:
            acc(b, _unout(cell, np.negative, g), fresh=True)

    return _binary_fwd(c, rec, np.subtract), bwd


@_op("mul", may_alias=True, bwd_reads=("in",), planned=True)
def _mul(c, rec, o, a, b):
    acc, gbufs = c.acc, c.gbufs
    need_a, need_b = (p.requires_grad for p in rec.parents)
    read_a, read_b = c.readers(rec)
    cell_a, cell_b = _Cell(), _Cell()

    def bwd():
        g = gbufs[o]
        if need_a:
            acc(a, _binout(cell_a, np.multiply, g, read_b()), fresh=True)
        if need_b:
            acc(b, _binout(cell_b, np.multiply, g, read_a()), fresh=True)

    return _binary_fwd(c, rec, np.multiply), bwd


@_op("div", may_alias=True, bwd_reads=("in",), planned=True)
def _div(c, rec, o, a, b):
    acc, gbufs, cell = c.acc, c.gbufs, _Cell()
    need_a, need_b = (p.requires_grad for p in rec.parents)
    read_a, read_b = c.readers(rec)

    def bwd():
        g = gbufs[o]
        if need_a:
            acc(a, _binout(cell, np.divide, g, read_b()), fresh=True)
        if need_b:
            acc(b, -g * read_a() / (read_b() ** 2), fresh=True)

    return _binary_fwd(c, rec, np.divide), bwd


@_op("relu", may_alias=True, bwd_reads=("in",), planned=True, bwd_mask=True)
def _relu(c, rec, o, a):
    arena, acc, gbufs = c.arena, c.acc, c.gbufs
    buf, mask, cell = c.out_buf(rec), c.mask_buf(rec), _Cell()

    def fwd():
        relu_forward(arena[a], out=buf)

    def bwd():
        # The input buffer is still intact at backward time, so the
        # mask is derived here and skipped entirely in inference runs.
        np.greater(arena[a], 0, out=mask)
        acc(a, _binout(cell, np.multiply, gbufs[o], mask), fresh=True)

    return fwd, bwd


@_op("pow", may_alias=False, bwd_reads=("in",), planned=False)
def _pow(c, rec, o, a):
    arena, acc, gbufs = c.arena, c.acc, c.gbufs
    exponent = rec.meta["exponent"]

    def fwd():
        # `x ** e` has ufunc fast paths `np.power` lacks; rerun the
        # literal expression so the bits can never differ.
        arena[o] = arena[a] ** exponent

    def bwd():
        acc(a, gbufs[o] * exponent * arena[a] ** (exponent - 1), fresh=True)

    return fwd, bwd


@_op("sum", may_alias=False, bwd_reads=(), planned=True)
def _sum(c, rec, o, a):
    arena, acc, gbufs = c.arena, c.acc, c.gbufs
    lead, n_lead = c.lead, len(c.lead)
    axis, keepdims = rec.meta["axis"], rec.meta["keepdims"]
    in_base = rec.parents[0].data.shape
    in_shape = lead + in_base
    buf = c.out_buf(rec)
    if axis is None and lead:
        # A full reduce must not cross the client axis: it becomes a
        # per-client reduce over the flattened base, whose C-order
        # element sequence matches the eager one slice for slice.
        flat_in, flat_out = lead + (-1,), buf.reshape(lead)
        grad_view = lead + (1,) * len(in_base)

        def fwd():
            arena[a].reshape(flat_in).sum(axis=-1, out=flat_out)

        def bwd():
            acc(a, np.broadcast_to(gbufs[o].reshape(grad_view), in_shape))

        return fwd, bwd

    def shift(ax):
        return ax + n_lead if ax >= 0 else ax

    if axis is not None:
        axis = tuple(map(shift, axis)) if isinstance(axis, tuple) else shift(axis)
    expand = axis is not None and not keepdims

    def fwd():
        arena[a].sum(axis=axis, keepdims=keepdims, out=buf)

    def bwd():
        g = gbufs[o]
        if expand:
            g = np.expand_dims(g, axis=axis)
        acc(a, np.broadcast_to(g, in_shape))

    return fwd, bwd


@_op("reshape", may_alias=False, bwd_reads=(), planned=False, view=True)
def _reshape(c, rec, o, a):
    arena, acc, gbufs = c.arena, c.acc, c.gbufs
    shape = c.lead + tuple(rec.meta["shape"])
    in_shape = c.lead + rec.parents[0].data.shape

    def fwd():
        arena[o] = arena[a].reshape(shape)

    def bwd():
        acc(a, gbufs[o].reshape(in_shape))

    return fwd, bwd


@_op("linear", may_alias=False, bwd_reads=("in",), planned=True)
def _linear(c, rec, o, sx, sw, sb=None):
    acc, gbufs, n_lead = c.acc, c.gbufs, len(c.lead)
    x_nd = rec.parents[0].data.ndim
    if c.lead and x_nd < 2:
        raise CaptureError("stacked linear needs a >= 2-D input")
    need_x, need_w = rec.parents[0].requires_grad, rec.parents[1].requires_grad
    need_b = sb is not None and rec.parents[2].requires_grad
    read_x, read_w, *read_b = c.readers(rec)
    w_shape = c.shapes[sw]
    wt_shape = w_shape[:-2] + (w_shape[-1], w_shape[-2])
    buf, cell_x, cell_w = c.out_buf(rec), _Cell(), _Cell()

    def fwd():
        np.matmul(read_x(), _swap_last(read_w()), out=buf)
        if read_b:
            np.add(buf, read_b[0](), out=buf)

    def bwd():
        g = gbufs[o]
        if need_x:
            acc(sx, _binout(cell_x, np.matmul, g, read_w()), fresh=True)
        if need_w:
            if x_nd == 1:
                gw = np.outer(read_x(), g)
            else:
                gw = _binout(cell_w, np.matmul, _swap_last(read_x()), g)
            if gw.shape != wt_shape:
                gw = _unbroadcast(gw, wt_shape, n_lead)
            acc(sw, _swap_last(gw), fresh=True)
        if need_b:
            acc(sb, g)

    return fwd, bwd


def _im2col(lead, n, ch, oh, ow, kernel, stride, dtype):
    """``(fill, cols2)`` for one sliding-window geometry.

    ``fill(img)`` copies the windows of a ``lead + (n, ch, H, W)`` image
    into a reused column scratch; ``cols2`` is that scratch's
    ``lead + (n*oh*ow, ch*kernel*kernel)`` matrix view.
    """
    cols = np.empty(lead + (n, oh, ow, ch, kernel, kernel), dtype=dtype)
    cols2 = cols.reshape(lead + (n * oh * ow, ch * kernel * kernel))
    perm = _perm(len(lead), 0, 2, 3, 1, 4, 5)

    def fill(img):
        np.copyto(cols, F.sliding_windows(img, kernel, stride).transpose(perm))

    return fill, cols2


@_op("conv2d", may_alias=False, bwd_reads=("in",), planned=False)
def _conv2d(c, rec, o, sx, sw, sb=None):
    arena, acc, gbufs = c.arena, c.acc, c.gbufs
    lead, n_lead = c.lead, len(c.lead)
    meta = rec.meta
    n, ch, h, w = meta["image_shape"]
    _, oc, oh, ow = meta["out_shape"]
    kernel, stride, padding = meta["kernel"], meta["stride"], meta["padding"]
    x_req, w_req = rec.parents[0].requires_grad, rec.parents[1].requires_grad
    b_req = sb is not None and rec.parents[2].requires_grad
    read_bias = None if sb is None else c.reader(rec.parents[2], 2)
    dtype = rec.parents[0].data.dtype
    flat_weight_shape = (lead if sw in c.stacked else ()) + (oc, ch * kernel * kernel)
    weight_shape = lead + rec.parents[1].data.shape
    padded_shape = lead + (n, ch, h + 2 * padding, w + 2 * padding)
    image_shape = lead + (n, ch, h, w)
    to_nchw, to_nhwc = _perm(n_lead, 0, 3, 1, 2), _perm(n_lead, 0, 2, 3, 1)
    fill_cols, cols2 = _im2col(lead, n, ch, oh, ow, kernel, stride, dtype)
    mm_cell, bias_cell, gw_cell, gc_cell = _Cell(), _Cell(), _Cell(), _Cell()
    st: dict = {}
    col2im_scratch: dict = {}

    def fwd():
        img = arena[sx]
        if padding > 0:
            padded = st.get("padded")
            if padded is None:
                padded = st["padded"] = np.zeros(padded_shape, dtype=dtype)
            padded[..., padding : padding + h, padding : padding + w] = img
            img = padded
        fill_cols(img)
        flat_weight = arena[sw].reshape(flat_weight_shape)
        out_flat = _binout(mm_cell, np.matmul, cols2, _swap_last(flat_weight))
        if sb is not None:
            out_flat = _binout(bias_cell, np.add, out_flat, read_bias())
        arena[o] = out_flat.reshape(lead + (n, oh, ow, oc)).transpose(to_nchw)

    def bwd():
        grad_flat = gbufs[o].transpose(to_nhwc).reshape(lead + (n * oh * ow, oc))
        if w_req:
            gw = _binout(gw_cell, np.matmul, _swap_last(grad_flat), cols2)
            acc(sw, gw.reshape(weight_shape), fresh=True)
        if b_req:
            acc(sb, grad_flat.sum(axis=-2), fresh=True)
        if x_req:
            flat_weight = arena[sw].reshape(flat_weight_shape)
            gc = _binout(gc_cell, np.matmul, grad_flat, flat_weight)
            grad_image = F.col2im(
                gc, image_shape, kernel, stride, padding, col2im_scratch
            )
            acc(sx, grad_image, fresh=True)

    return fwd, bwd


@_op("max_pool2d", may_alias=False, bwd_reads=(), planned=False)
def _max_pool2d(c, rec, o, sx):
    arena, acc, gbufs = c.arena, c.acc, c.gbufs
    kernel, stride = rec.meta["kernel"], rec.meta["stride"]
    image_shape = c.lead + rec.meta["image_shape"]
    fwd_scratch: dict = {}
    bwd_scratch: dict = {}
    st: dict = {}

    def fwd():
        arena[o], st["arg"] = F.max_pool_forward(
            arena[sx], kernel, stride, fwd_scratch
        )

    def bwd():
        grad_image = F.max_pool_backward(
            gbufs[o], st["arg"], image_shape, kernel, stride, bwd_scratch
        )
        acc(sx, grad_image, fresh=True)

    return fwd, bwd


@_op("cross_entropy", may_alias=False, bwd_reads=(), planned=False)
def _cross_entropy(c, rec, o, sl):
    arena, acc, gbufs = c.arena, c.acc, c.gbufs
    lead = c.lead
    reduction = rec.meta["reduction"]
    if c.labels is None or rec.meta["targets"] is not c.labels:
        raise CaptureError("cross_entropy targets are not the step labels")
    n = rec.parents[0].data.shape[0]
    lt = c.labels_slot
    # Open-mesh indices of every (client, row): `x[grid + (targets,)]`
    # picks each row's target-class entry.
    grid = np.ix_(*(np.arange(size) for size in lead + (n,)))
    scale_shape = lead + ((n, 1) if reduction == "none" else (1, 1))
    st: dict = {}
    gl_cell = _Cell()

    def fwd():
        logits = arena[sl]
        picked = grid + (arena[lt],)
        if "max" not in st:
            st["max"] = logits.max(axis=-1, keepdims=True)
            st["shifted"] = logits - st["max"]
            st["exp"] = np.exp(st["shifted"])
            st["sumexp"] = st["exp"].sum(axis=-1, keepdims=True)
            st["ln"] = np.log(st["sumexp"][..., 0])
            st["losses"] = st["ln"] - st["shifted"][picked]
        else:
            logits.max(axis=-1, keepdims=True, out=st["max"])
            np.subtract(logits, st["max"], out=st["shifted"])
            np.exp(st["shifted"], out=st["exp"])
            st["exp"].sum(axis=-1, keepdims=True, out=st["sumexp"])
            np.log(st["sumexp"][..., 0], out=st["ln"])
            np.subtract(st["ln"], st["shifted"][picked], out=st["losses"])
        losses = st["losses"]
        if reduction == "none":
            arena[o] = losses
        elif reduction == "sum":
            arena[o] = losses.sum(axis=-1)
        else:
            arena[o] = losses.mean(axis=-1)

    def bwd():
        g = np.asarray(gbufs[o])
        scale = (g / n if reduction == "mean" else g).reshape(scale_shape)
        # exp is rewritten by the next forward replay, so the in-place
        # softmax matches the eager closure exactly.
        softmax = np.divide(st["exp"], st["sumexp"], out=st["exp"])
        gl = _binout(gl_cell, np.multiply, softmax, scale)
        gl[grid + (arena[lt],)] -= scale[..., 0]
        acc(sl, gl, fresh=True)

    return fwd, bwd


class _Compiler:
    """Turns a :class:`Tape` into a :class:`CapturedStep` — or, given
    ``stack=K`` and the model's ``params``, a :class:`StackedStep`.

    ``lead`` is ``()`` or ``(K,)``.  Op outputs, parameters, the input
    batch and the labels get ``lead + base`` slots; non-parameter
    constants stay unstacked and broadcast (NumPy's right-alignment
    handles them untouched).  What differs with ``stack`` is decided
    here, at compile time: parameter/input/label slots are rebound from
    the live objects (serial) or owned by the program (stacked), output
    buffers copy the eager layout or are fresh ``lead + base`` arrays,
    and module buffers (batch norm) are rejected when stacked.
    """

    def __init__(
        self,
        tape: Tape,
        input_tensor: Tensor,
        output: Tensor,
        labels,
        optimize: bool = True,
        stack: int | None = None,
        params=None,
    ):
        self.tape = tape
        self.input_tensor = input_tensor
        self.output = output
        self.labels = labels
        self.optimize = optimize
        self.stack = stack
        self.lead = () if stack is None else (stack,)
        #: slots carrying the lead axes (none in a serial program)
        self.stacked: set[int] = set()
        self._param_index = {id(p): i for i, p in enumerate(params or ())}
        self.param_slots: list[int | None] = [None] * len(self._param_index)
        self._planner: _ArenaPlanner | None = None
        self._interned = 0
        self._raw_slots = 0
        self._raw_bytes = 0
        self.slots: dict[int, int] = {}
        self.arena: list = []
        self.shapes: list = []
        self.dtypes: list = []
        self.gbufs: list = []
        self.param_refresh: list = []
        self.buffer_refresh: list = []
        self.param_binds: list = []
        self.input_slot: int | None = None
        self.labels_slot: int | None = None
        self._buffer_leaf_map = {
            id(t): (module, name, shape)
            for t, module, name, shape in tape.buffer_leaves
        }
        self._recmap = {
            id(rec.out): rec for kind, rec in tape.entries if kind == "op"
        }
        self.acc = self._make_acc()

    # -- slots ----------------------------------------------------------
    def _new_slot(self, base_shape, dtype, stacked: bool) -> int:
        """A slot of ``lead + base_shape`` (``stacked``) or ``base_shape``;
        program-owned stacked buffers are allocated by :meth:`_own` and
        :meth:`_own_params`."""
        slot = len(self.arena)
        self.arena.append(None)
        self.shapes.append(self.lead + base_shape if stacked else base_shape)
        self.dtypes.append(dtype)
        self.gbufs.append(None)
        if stacked and self.lead:
            self.stacked.add(slot)
        return slot

    def _own(self, slot: int) -> None:
        self.arena[slot] = np.empty(self.shapes[slot], self.dtypes[slot])

    def _own_params(self) -> None:
        """Allocate the stacked parameter slots as column views of one
        ``(K, P)`` block, in ``model.parameters()`` order, so
        :class:`~repro.grad.optim.StackedSGD` updates them in one pass."""
        slots = [slot for slot in self.param_slots if slot is not None]
        bases = [self.shapes[slot][1:] for slot in slots]
        block = np.empty(
            (self.stack, sum(math.prod(base) for base in bases)),
            self.dtypes[slots[0]],
        )
        for slot, view in zip(slots, column_views(block, bases)):
            self.arena[slot] = view

    def slot(self, t: Tensor) -> int:
        return self.slots[id(t)]

    def _ensure_slot(self, t: Tensor, is_out: bool) -> int:
        existing = self.slots.get(id(t))
        if existing is not None:
            return existing
        stacked = is_out or isinstance(t, Parameter) or t is self.input_tensor
        slot = self._new_slot(t.data.shape, t.data.dtype, stacked)
        self.slots[id(t)] = slot
        if not is_out:
            self._classify_leaf(t, slot)
        return slot

    def _classify_leaf(self, t: Tensor, slot: int) -> None:
        lead = self.lead
        if isinstance(t, Parameter):
            if lead:
                index = self._param_index.get(id(t))
                if index is None:
                    raise CaptureError(
                        "traced parameter is not in the model's parameter list"
                    )
                self.param_slots[index] = slot
            else:
                self.param_refresh.append((slot, t))
                self.param_binds.append((t, slot))
        elif t is self.input_tensor:
            self.input_slot = slot
            if lead:
                self._own(slot)
        elif id(t) in self._buffer_leaf_map:
            if lead:
                raise CaptureError(
                    "stacked replay does not support module buffers (batch norm)"
                )
            module, name, shape = self._buffer_leaf_map[id(t)]
            self.buffer_refresh.append((slot, module, name, shape))
        else:
            if lead and t.requires_grad:
                raise CaptureError(
                    "stacked replay cannot bind a gradient-bearing non-parameter leaf"
                )
            # Constant (coerced scalar, eps, 1/count, ...): snapshot once,
            # shared by all clients.
            if self.optimize:
                value, shared = _intern_constant(t.data)
                self._interned += 1 if shared else 0
                self.arena[slot] = value
            else:
                self.arena[slot] = np.array(t.data, copy=True)

    def reader(self, t: Tensor, out_ndim: int):
        """A zero-arg closure yielding ``t``'s buffer, viewed so its base
        dims align right against an output of base rank ``out_ndim``.

        A stacked operand of lower base rank must be seen as ``(K, 1,
        ..., base)`` before any broadcasting op — naive right-alignment
        would smear the client axis across a data dimension.
        """
        slot, arena = self.slot(t), self.arena
        pad = out_ndim - t.data.ndim
        if pad <= 0 or slot not in self.stacked:
            return lambda: arena[slot]
        view_shape = self.lead + (1,) * pad + t.data.shape
        return lambda: arena[slot].reshape(view_shape)

    def readers(self, rec: _OpRecord) -> list:
        return [self.reader(p, rec.out.data.ndim) for p in rec.parents]

    def _make_acc(self):
        shapes, dtypes, gbufs = self.shapes, self.dtypes, self.gbufs
        n_lead = len(self.lead)
        # Plain-list flags: scalar indexing is measurably cheaper than on
        # an ndarray in this per-gradient hot path.  Sized at compile end.
        seen: list = []

        def acc(slot, value, fresh=False):
            if value.shape != shapes[slot]:
                # Broadcast dims sit between the lead axes and the base
                # shape, so the per-slice summation pattern is the eager
                # single-client one.
                value = _unbroadcast(np.asarray(value), shapes[slot], n_lead)
            if seen[slot]:
                gbufs[slot] += value
            else:
                # ``fresh`` marks values the kernel owns outright (a private
                # cell or a per-step allocation, never a view of another
                # slot's gradient): those are bound directly, skipping a
                # full copy pass — same arithmetic, one less memory sweep.
                # Later ``+=`` hits mutate the cell, which the owning kernel
                # fully rewrites on its next execution anyway.
                if (
                    fresh
                    and value.dtype == dtypes[slot]
                    and value.flags.writeable
                ):
                    gbufs[slot] = value
                else:
                    buf = gbufs[slot]
                    if buf is None:
                        # asarray: a 0-d gradient may arrive as a NumPy
                        # scalar, which the next step could not copyto.
                        gbufs[slot] = np.asarray(
                            value.astype(dtypes[slot], copy=True)
                        )
                    else:
                        np.copyto(buf, value)
                seen[slot] = True

        self._acc_seen = seen
        return acc

    # -- compile --------------------------------------------------------
    def compile(self, with_backward: bool):
        lead = self.lead
        if self.labels is not None:
            self.labels_slot = self._new_slot(
                self.labels.shape, self.labels.dtype, stacked=True
            )
            if lead:
                self._own(self.labels_slot)

        # Slot assignment precedes kernel construction so the planner can
        # see the whole program (including the backward schedule) before
        # any kernel closes over a concrete buffer.
        for kind, entry in self.tape.entries:
            if kind == "op":
                for parent in entry.parents:
                    self._ensure_slot(parent, is_out=False)
                self._ensure_slot(entry.out, is_out=True)
            elif lead:
                raise CaptureError(
                    "stacked replay does not support batch-norm updates"
                )

        if id(self.output) not in self.slots:
            raise CaptureError("model output is not an op of the tape")
        if lead and any(slot is not None for slot in self.param_slots):
            self._own_params()

        sched: list = []
        seed = None
        if with_backward:
            if not self.output.requires_grad:
                raise CaptureError("output does not require grad")
            if self.output.data.size != 1:
                raise CaptureError("backward capture needs a scalar loss")
            if lead and self.input_slot is None:
                raise CaptureError(
                    "model output does not depend on the input batch"
                )
            seed = np.ones(
                lead + self.output.data.shape, dtype=self.output.data.dtype
            )
            sched = self._schedule_backward()

        if self.optimize:
            self._plan_arena(sched)

        forward_ops: list = []
        backward: dict[int, object] = {}
        for kind, entry in self.tape.entries:
            if kind == "op":
                fwd, backward[id(entry)] = _OPS[entry.kind].build(
                    self,
                    entry,
                    self.slot(entry.out),
                    *(self.slot(p) for p in entry.parents),
                )
                forward_ops.append(fwd)
            else:
                forward_ops.append(self._bn_op(entry))

        self._acc_seen.extend([False] * len(self.arena))
        fields = dict(
            arena=self.arena,
            forward_ops=forward_ops,
            backward_ops=[backward[id(rec)] for rec in sched],
            input_slot=self.input_slot,
            labels_slot=self.labels_slot,
            out_slot=self.slot(self.output),
            gbufs=self.gbufs,
            gseen=self._acc_seen,
            gseen_false=[False] * len(self.arena),
            seed=seed,
            acc=self.acc,
            stats=self._plan_stats(),
        )
        if lead:
            return StackedStep(
                param_slots=self.param_slots, stack=self.stack, **fields
            )
        return CapturedStep(
            param_refresh=self.param_refresh,
            buffer_refresh=self.buffer_refresh,
            param_binds=self.param_binds,
            **fields,
        )

    # -- optimizer passes ------------------------------------------------
    def _schedule_backward(self) -> list:
        """The backward records in execution order.

        The order replicates the eager reverse-topological pass exactly,
        so replayed gradient accumulation matches it bit for bit.
        """
        sched: list = []
        for node in reversed(self._toposort()):
            if node._backward is None:
                continue
            rec = self._recmap.get(id(node))
            if rec is None:
                raise CaptureError("graph node missing from the tape")
            sched.append(rec)
        return sched

    def _plan_arena(self, sched: list) -> None:
        """Collect liveness events in program order and color the arena."""
        planner = _ArenaPlanner()
        step = 0
        for kind, entry in self.tape.entries:
            if kind == "op":
                rec = entry
                for p in rec.parents:
                    planner.read(self.slot(p), step)
                o = self.slot(rec.out)
                spec = _OPS[rec.kind]
                if spec.view:
                    planner.view(o, self.slot(rec.parents[0]))
                else:
                    managed = self._managed_spec(rec)
                    if managed is not None:
                        shape, dtype, strides = managed
                        planner.define(
                            o, shape, dtype, step, spec.may_alias, strides=strides
                        )
            else:
                _, mean_t, var_t, _ = entry
                sm = self.slots.get(id(mean_t))
                sv = self.slots.get(id(var_t))
                if sm is not None:
                    planner.read(sm, step)
                if sv is not None:
                    planner.read(sv, step)
            step += 1
        for rec in sched:
            spec = _OPS[rec.kind]
            if "out" in spec.bwd_reads:
                planner.read(self.slot(rec.out), step)
            if "in" in spec.bwd_reads:
                for p in rec.parents:
                    planner.read(self.slot(p), step)
            if spec.bwd_mask:
                # The bool mask lives only inside the backward kernel.
                planner.define_keyed(
                    id(rec), self._mask_shape(rec), bool, step, may_alias=False
                )
            step += 1
        # The program output is handed to the caller after replay (the
        # loss read, inference logits, stacked per-client losses), so its
        # storage must survive the whole program.
        planner.read(self.slot(self.output), step)
        planner.plan()
        self._planner = planner

    def _managed_spec(self, rec: _OpRecord):
        """(shape, dtype, strides) of a colorable output buffer, or None.

        The carved block view must be byte-for-byte the layout
        :meth:`out_buf` would otherwise allocate.  Stacked buffers are
        always fresh C-contiguous ``lead + base`` arrays; serial ones
        copy the eager layout: C-contiguous outputs reshape straight out
        of the block (strides None), dense permuted layouts (e.g. the
        NCHW view of a conv output flowing through relu) are re-strided
        to the probed ``np.empty_like`` strides, and anything non-dense
        stays unmanaged.
        """
        if not _OPS[rec.kind].planned:
            return None
        out = rec.out.data
        if self.lead or out.flags["C_CONTIGUOUS"]:
            return self.lead + out.shape, out.dtype, None
        strides = _dense_layout(np.empty_like(out))
        if strides is False:
            return None
        return out.shape, out.dtype, strides

    def _mask_shape(self, rec: _OpRecord) -> tuple:
        return self.lead + rec.parents[0].data.shape

    def out_buf(self, rec: _OpRecord) -> np.ndarray:
        """The compile-time buffer ``rec``'s forward kernel writes, bound
        to its output slot: the planner's block view, else a dedicated
        allocation."""
        planner = self._planner
        buf = None if planner is None else planner.buffer(self.slot(rec.out))
        if buf is None:
            out = rec.out.data
            if self.lead:
                buf = np.empty(self.lead + out.shape, out.dtype)
            else:
                buf = np.empty_like(out)
            if planner is None and self._managed_spec(rec) is not None:
                self._raw_slots += 1
                self._raw_bytes += buf.nbytes
        self.arena[self.slot(rec.out)] = buf
        return buf

    def mask_buf(self, rec: _OpRecord) -> np.ndarray:
        planner = self._planner
        if planner is not None:
            buf = planner.keyed_buffer(id(rec))
            if buf is not None:
                return buf
        mask = np.empty(self._mask_shape(rec), dtype=bool)
        if planner is None:
            self._raw_slots += 1
            self._raw_bytes += mask.nbytes
        return mask

    def _plan_stats(self) -> ArenaPlanStats:
        planner = self._planner
        if planner is None:
            return ArenaPlanStats(
                peak_bytes=self._raw_bytes,
                unplanned_bytes=self._raw_bytes,
                slots_before=self._raw_slots,
                slots_after=self._raw_slots,
                constants_interned=self._interned,
            )
        return ArenaPlanStats(
            peak_bytes=planner.planned_bytes,
            unplanned_bytes=planner.dedicated_bytes,
            slots_before=len(planner.allocs),
            slots_after=len(planner.blocks),
            constants_interned=self._interned,
        )

    def _toposort(self) -> list[Tensor]:
        # Replicates Tensor.backward's DFS exactly, so the replayed
        # accumulation order matches the eager one bit for bit.
        ordered: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self.output, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                ordered.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        return ordered

    def _bn_op(self, entry):
        module, mean_t, var_t, count = entry
        if id(mean_t) not in self.slots or id(var_t) not in self.slots:
            raise CaptureError("batch-norm stats missing from the tape")
        sm = self.slot(mean_t)
        sv = self.slot(var_t)
        arena = self.arena

        def run():
            m = module.momentum
            mean_arr = arena[sm]
            var_arr = arena[sv]
            unbiased = var_arr * (count / max(count - 1, 1))
            module._set_buffer(
                "running_mean",
                (1 - m) * module.running_mean + m * mean_arr.reshape(-1),
            )
            module._set_buffer(
                "running_var",
                (1 - m) * module.running_var + m * unbiased.reshape(-1),
            )
            module._set_buffer(
                "num_batches_tracked",
                np.asarray(int(module.num_batches_tracked) + 1),
            )

        return run


def compile_stacked_step(
    model, stack: int, features, labels, optimize: bool = True
) -> StackedStep:
    """Compile a K-client batched SGD training step for ``model``.

    ``features``/``labels`` are shape/dtype templates for *one* client's
    full-size batch; values are ignored.  The trace runs on synthetic
    zeros (consuming no randomness) and the model state is restored
    afterwards, so calling this is observably side-effect free.  Raises
    :class:`CaptureError` when the model records ops that cannot be
    batched (batch norm).
    """
    snapshot = model.state_dict()
    model.train()
    synth_x = np.zeros_like(np.asarray(features))
    synth_y = np.zeros_like(np.asarray(labels))
    tape = Tape()
    x = Tensor(synth_x)
    previous = tensor_mod._set_tape(tape)
    try:
        logits = model(x)
        loss = F.cross_entropy(logits, synth_y)
    finally:
        tensor_mod._set_tape(previous)
    try:
        if tape.failed is not None:
            raise CaptureError(tape.failed)
        return _Compiler(
            tape,
            x,
            loss,
            synth_y,
            optimize=optimize,
            stack=stack,
            params=model.parameters(),
        ).compile(with_backward=True)
    finally:
        # The trace may have advanced buffer state (batch-norm running
        # stats) before failing; roll everything back.
        model.load_state_dict(snapshot)


class StackedEngine:
    """Per-(K, batch-shape) stacked programs for one model.

    Mirrors :class:`_Engine`'s failure memoization: a (stack, shapes)
    key whose compile was rejected raises the same :class:`CaptureError`
    immediately on later requests, so executors can probe cheaply.
    """

    def __init__(self, model, optimize: bool = True):
        self.model = model
        self.optimize = optimize
        self.programs: dict = {}
        self.failures: dict = {}

    def program(self, stack: int, features, labels) -> StackedStep:
        key = (
            stack,
            features.shape,
            str(features.dtype),
            labels.shape,
            str(labels.dtype),
        )
        program = self.programs.get(key)
        if program is not None:
            return program
        reason = self.failures.get(key)
        if reason is not None:
            raise CaptureError(reason)
        try:
            program = compile_stacked_step(
                self.model, stack, features, labels, optimize=self.optimize
            )
        except CaptureError as error:
            self.failures[key] = str(error)
            raise
        self.programs[key] = program
        return program


# ----------------------------------------------------------------------
# Engines
# ----------------------------------------------------------------------
class _Engine:
    """Shared capture bookkeeping: one program, for the largest batch.

    The engine holds a single program and lets it follow the batch with
    the most rows seen so far: a larger shape is captured and displaces
    the held program (so a ragged first batch cannot pin the engine to
    the wrong shape), every smaller one (the ragged last batch of a
    loader, odd evaluation tails) reports a fallback and runs eagerly.
    ``captures``/``replays``/``fallbacks`` count what actually happened,
    and ``failures`` maps a shape key to the reason its capture was
    rejected.
    """

    def __init__(self, model, optimize: bool = True):
        self.model = model
        self.optimize = optimize
        self.programs: dict = {}
        self.failures: dict = {}
        self.captures = 0
        self.replays = 0
        self.fallbacks = 0
        # Last program hit, keyed by raw shapes/dtypes: building the
        # string-keyed dict key costs tens of microseconds per step,
        # which is real money against a sub-millisecond replay.
        self._hot: tuple | None = None
        self._rows = 0  # batch rows of the held program

    def _should_capture(self, key, rows: int) -> bool:
        return rows > self._rows and key not in self.failures

    def _compile(self, key, tape: Tape, x: Tensor, output: Tensor, labels) -> None:
        """Make the traced step the engine's program, or memoize why not.

        Must run before ``output.backward()``, which frees the graph.
        """
        if tape.failed is not None:
            self.failures[key] = tape.failed
            return
        try:
            program = _Compiler(
                tape, x, output, labels, optimize=self.optimize
            ).compile(with_backward=labels is not None)
        except CaptureError as error:
            self.failures[key] = str(error)
            return
        self.programs = {key: program}
        self._rows = x.data.shape[0]
        self._hot = None
        self.captures += 1


class TrainingEngine(_Engine):
    """Captured forward+backward training step (loss and param grads)."""

    def step(self, features: np.ndarray, labels: np.ndarray) -> float | None:
        """Loss for one step, with grads left in ``param.grad``.

        Returns None when this batch shape must run eagerly.
        """
        hot = self._hot
        if (
            hot is not None
            and hot[0] == features.shape
            and hot[1] is features.dtype
            and hot[2] == labels.shape
            and hot[3] is labels.dtype
        ):
            self.replays += 1
            return hot[4].replay_step(features, labels)
        key = (
            features.shape,
            str(features.dtype),
            labels.shape,
            str(labels.dtype),
        )
        program = self.programs.get(key)
        if program is not None:
            # Builtin dtypes are interned, so the identity probe above
            # will hit from now on; exotic dtypes just stay on this path.
            self._hot = (
                features.shape, features.dtype, labels.shape, labels.dtype,
                program,
            )
            self.replays += 1
            return program.replay_step(features, labels)
        if not self._should_capture(key, features.shape[0]):
            self.fallbacks += 1
            return None
        tape = Tape()
        x = Tensor(features)
        previous = tensor_mod._set_tape(tape)
        try:
            logits = self.model(x)
            loss = F.cross_entropy(logits, labels)
        finally:
            tensor_mod._set_tape(previous)
        self._compile(key, tape, x, loss, labels)
        loss.backward()
        return loss.item()


class InferenceEngine(_Engine):
    """Captured forward pass for evaluation (logits only, no grads)."""

    def forward(self, features: np.ndarray) -> np.ndarray | None:
        """Logits for one batch, or None when it must run eagerly.

        The returned array is an arena buffer overwritten by the next
        replay — consume it before calling again.
        """
        hot = self._hot
        if (
            hot is not None
            and hot[0] == features.shape
            and hot[1] is features.dtype
        ):
            self.replays += 1
            return hot[2].replay_forward(features)
        key = (features.shape, str(features.dtype))
        program = self.programs.get(key)
        if program is not None:
            self._hot = (features.shape, features.dtype, program)
            self.replays += 1
            return program.replay_forward(features)
        if not self._should_capture(key, features.shape[0]):
            self.fallbacks += 1
            return None
        tape = Tape()
        x = Tensor(features)
        previous = tensor_mod._set_tape(tape)
        try:
            out = self.model(x)
        finally:
            tensor_mod._set_tape(previous)
        self._compile(key, tape, x, out, None)
        return out.data


def _engine_cache(model) -> dict:
    cache = getattr(model, "_capture_engines", None)
    if cache is None:
        # A plain attribute: Module.__setattr__ keeps it out of the
        # parameter/module registries, so it never reaches state_dict()
        # or a checkpoint (the model object itself is never pickled).
        cache = {}
        model._capture_engines = cache
    return cache


def training_engine(model, optimize: bool = True) -> TrainingEngine:
    """The model's cached :class:`TrainingEngine` (created on first use).

    ``optimize=False`` compiles programs without the arena planner and
    constant interning (the planner's test reference); optimized
    and raw engines are cached independently.
    """
    cache = _engine_cache(model)
    key = "train" if optimize else "train-raw"
    engine = cache.get(key)
    if engine is None:
        engine = TrainingEngine(model, optimize=optimize)
        cache[key] = engine
    return engine


def inference_engine(model, optimize: bool = True) -> InferenceEngine:
    """The model's cached :class:`InferenceEngine` (created on first use)."""
    cache = _engine_cache(model)
    key = "eval" if optimize else "eval-raw"
    engine = cache.get(key)
    if engine is None:
        engine = InferenceEngine(model, optimize=optimize)
        cache[key] = engine
    return engine


def stacked_engine(model, optimize: bool = True) -> StackedEngine:
    """The model's cached :class:`StackedEngine` (created on first use)."""
    cache = _engine_cache(model)
    key = "stacked" if optimize else "stacked-raw"
    engine = cache.get(key)
    if engine is None:
        engine = StackedEngine(model, optimize=optimize)
        cache[key] = engine
    return engine
