"""Shape-specialized step capture & replay for :mod:`repro.grad`.

Every local SGD step traces an identical ``Tensor`` closure graph: the
same ops in the same order over the same shapes, differing only in the
batch contents and the parameter values.  This module records that trace
once — into a :class:`CapturedStep` — and *replays* it on later steps
into buffers kept from its first replay, skipping per-step Python closure
construction, graph bookkeeping, and most ``np.zeros``/``astype(copy=True)``
allocations.

Bitwise safety
--------------
Replay is bitwise-identical to eager execution because every replay
kernel runs the *same NumPy calls on arrays of the same memory layout*:

* replay runs the very op objects of :data:`repro.grad.ops.OPS` that
  eager autograd runs, with a per-record scratch dict instead of fresh
  arrays;
* gradient accumulation mirrors :meth:`Tensor._accumulate`: the first
  write per step copies (or ``np.copyto``-refreshes) the freshly
  computed value, later writes use ``+=`` in the same order as the eager
  reverse-topological pass, which is replicated verbatim at compile
  time.

Kept buffers
------------
A record's scratch dict is its only storage.  The first replay fills it
with each kernel's own fresh results, so every kept buffer has exactly
the layout eager execution gives (reductions see the same strides); later
replays write into them ``out=``.  Nothing is planned or shared between
records, so no kernel can overwrite bytes another record still reads.
Constants are write-locked snapshots, so a kernel that wrote one would
fail loudly.

One op table, one compiler
--------------------------
:meth:`_Compiler._bind` binds each record's op object to its slots: it
reads the parent buffers, writes the output slot, keeps ``ctx`` from
forward to backward and routes the backward kernel's gradients to the
program's accumulator.  ``lead``, the compiler's leading axes, is ``()``
for a serial :class:`CapturedStep` and ``(K,)`` for a
:class:`StackedStep` that runs K clients' steps as single ``(K, ...)``
NumPy ops.

Fallback
--------
Capture is best-effort: a step it declines runs eagerly, and correctness
never depends on capture succeeding.  Every op the library emits has a
row in the table, so only two things decline: a batch with fewer rows
than the engine's program (a loader's ragged tail), and a tape the
compiler rejects with a :class:`CaptureError` (batch norm in a stacked
program, say), whose reason is memoized per shape.  :meth:`Tape.record`
still refuses a kind the table lacks (an :class:`~repro.grad.ops.Op`
object outside the table run by hand through ``tensor._apply``), so such
a step runs eagerly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.grad import functional as F
from repro.grad import tensor as tensor_mod
from repro.grad.nn.module import Parameter
from repro.grad.ops import OPS, _unbroadcast
from repro.grad.serialize import column_views
from repro.grad.tensor import Tensor


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
        if kind not in OPS:
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


@dataclass(frozen=True)
class ProgramStats:
    """What one compiled program holds."""

    #: bytes of the distinct buffers the program keeps between replays:
    #: its own arena slots, its gradient buffers and every record's kept
    #: scratch (the first replay allocates the scratch)
    peak_bytes: int


def _program_stats(program, borrowed=()) -> ProgramStats:
    """``program``'s held bytes; ``borrowed`` arena slots are the caller's
    arrays.  A view counts with its base, once."""
    arrays = [a for slot, a in enumerate(program.arena) if slot not in borrowed]
    arrays += program.gbufs
    arrays += [a for scratch in program.scratch for a in scratch.values()]
    bases = {}
    for array in arrays:
        while isinstance(array, np.ndarray) and isinstance(array.base, np.ndarray):
            array = array.base
        if isinstance(array, np.ndarray):
            bases[id(array)] = array.nbytes
    return ProgramStats(peak_bytes=sum(bases.values()))


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
        "scratch",
    )

    def __init__(self, **fields):
        for name, value in fields.items():
            setattr(self, name, value)

    @property
    def stats(self) -> ProgramStats:
        borrowed = {slot for slot, *_ in self.param_refresh + self.buffer_refresh}
        return _program_stats(self, borrowed | {self.input_slot})

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
            np.copyto(self.arena[self.labels_slot], labels)
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
        "scratch",
    )

    def __init__(self, **fields):
        for name, value in fields.items():
            setattr(self, name, value)

    @property
    def stats(self) -> ProgramStats:
        return _program_stats(self)

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


class _Compiler:
    """Turns a :class:`Tape` into a :class:`CapturedStep` — or, given
    ``stack=K`` and the model's ``params``, a :class:`StackedStep`.

    ``lead`` is ``()`` or ``(K,)``.  Op outputs, parameters, the input
    batch and the labels get ``lead + base`` slots; non-parameter
    constants stay unstacked and broadcast (NumPy's right-alignment
    handles them untouched).  What differs with ``stack`` is decided
    here, at compile time: parameter/input/label slots are rebound from
    the live objects (serial) or owned by the program (stacked), and
    module buffers (batch norm) are rejected when stacked.  Op outputs
    need no decision: each is its kernel's own result, kept in the
    record's scratch.
    """

    def __init__(
        self,
        tape: Tape,
        input_tensor: Tensor,
        output: Tensor,
        labels,
        stack: int | None = None,
        params=None,
    ):
        self.tape = tape
        self.input_tensor = input_tensor
        self.output = output
        self.labels = labels
        self.stack = stack
        self.lead = () if stack is None else (stack,)
        #: slots carrying the lead axes (none in a serial program)
        self.stacked: set[int] = set()
        self._param_index = {id(p): i for i, p in enumerate(params or ())}
        self.param_slots: list[int | None] = [None] * len(self._param_index)
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
        #: one kept-buffer dict per bound record
        self.scratch: list[dict] = []
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
            # shared by all clients; no kernel may write it.
            value = np.array(t.data, copy=True)
            value.setflags(write=False)
            self.arena[slot] = value

    def _bind(self, rec: _OpRecord):
        """The ``(forward, backward)`` replay closures of one record: its
        op object bound to the record's slots, the record's own scratch
        dict, and the program's accumulator."""
        op = OPS[rec.kind]
        if self.lead and rec.parents[0].data.ndim < op.stacked_rank:
            raise CaptureError(
                f"stacked {rec.kind} needs a >= {op.stacked_rank}-D input"
            )
        arena, gbufs, acc, lead = self.arena, self.gbufs, self.acc, self.lead
        o, srcs = self.slot(rec.out), [self.slot(p) for p in rec.parents]
        need = [p.requires_grad for p in rec.parents]
        meta = self._bind_meta(rec)
        scratch: dict = {}
        self.scratch.append(scratch)
        # A stacked operand of lower base rank is seen as (K, 1, ..., base)
        # before any broadcasting op: naive right-alignment would smear
        # the client axis across a data dimension.
        out_ndim = rec.out.data.ndim
        views = [
            lead + (1,) * (out_ndim - p.data.ndim) + p.data.shape
            if slot in self.stacked and p.data.ndim < out_ndim
            else None
            for p, slot in zip(rec.parents, srcs)
        ]
        if any(views):
            pairs = list(zip(srcs, views))

            def read():
                return [
                    arena[s] if v is None else arena[s].reshape(v) for s, v in pairs
                ]

        else:

            def read():
                return [arena[s] for s in srcs]

        forward, backward, ctx = op.forward, op.backward, [None]

        def fwd():
            arena[o], ctx[0] = forward(read(), meta, lead, scratch)

        def bwd():
            grads = backward(gbufs[o], read(), ctx[0], meta, need, lead, scratch)
            for slot, item in zip(srcs, grads):
                if item is not None:
                    acc(slot, item[0], item[1])

        return fwd, bwd

    def _bind_meta(self, rec: _OpRecord):
        """``rec.meta`` with its arrays bound to the program's labels.

        An array argument is step data, not a constant of the op; the only
        one a program can feed is the step's labels (cross-entropy's
        targets), read from the labels buffer each replay refills.
        """
        meta = rec.meta
        for key, value in (rec.meta or {}).items():
            if isinstance(value, np.ndarray):
                if self.labels is None or value is not self.labels:
                    raise CaptureError(
                        f"{rec.kind} {key} are not the step labels"
                    )
                meta = {**meta, key: self.arena[self.labels_slot]}
        return meta

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
                # ``fresh`` marks values no live gradient shares (a kept
                # scratch buffer, a per-step allocation, or a reshape of a
                # gradient never read again this step): those are bound
                # directly, skipping a full copy pass — same arithmetic,
                # one less memory sweep.  Later ``+=`` hits mutate that
                # storage, which its owner fully rewrites on its next
                # execution anyway.
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
            # Owned in every program: ops read the step labels from it.
            self.labels_slot = self._new_slot(
                self.labels.shape, self.labels.dtype, stacked=True
            )
            self._own(self.labels_slot)

        # Every slot exists, and every stacked refusal is raised, before
        # any record binds.
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

        forward_ops: list = []
        backward: dict[int, object] = {}
        for kind, entry in self.tape.entries:
            if kind == "op":
                fwd, backward[id(entry)] = self._bind(entry)
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
            scratch=self.scratch,
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

    def _schedule_backward(self) -> list:
        """The backward records in execution order: the eager pass's own
        order, so replayed gradient accumulation matches it bit for bit."""
        sched: list = []
        for node in reversed(tensor_mod._toposort(self.output)):
            if node._record is None:
                continue
            rec = self._recmap.get(id(node))
            if rec is None:
                raise CaptureError("graph node missing from the tape")
            sched.append(rec)
        return sched

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


def compile_stacked_step(model, stack: int, features, labels) -> StackedStep:
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

    def __init__(self, model):
        self.model = model
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
            program = compile_stacked_step(self.model, stack, features, labels)
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

    def __init__(self, model):
        self.model = model
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
            program = _Compiler(tape, x, output, labels).compile(
                with_backward=labels is not None
            )
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


def _cached_engine(model, key, make):
    """The engine cached on ``model`` under ``key``, made on first use."""
    cache = getattr(model, "_capture_engines", None)
    if cache is None:
        # A plain attribute: Module.__setattr__ keeps it out of the
        # parameter/module registries, so it never reaches state_dict()
        # or a checkpoint (the model object itself is never pickled).
        cache = {}
        model._capture_engines = cache
    engine = cache.get(key)
    if engine is None:
        engine = cache[key] = make(model)
    return engine


def training_engine(model) -> TrainingEngine:
    """The model's cached :class:`TrainingEngine` (created on first use)."""
    return _cached_engine(model, "train", TrainingEngine)


def inference_engine(model) -> InferenceEngine:
    """The model's cached :class:`InferenceEngine` (created on first use)."""
    return _cached_engine(model, "eval", InferenceEngine)


def stacked_engine(model) -> StackedEngine:
    """The model's cached :class:`StackedEngine` (created on first use)."""
    return _cached_engine(model, "stacked", StackedEngine)
