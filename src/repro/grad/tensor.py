"""The :class:`Tensor` class: a NumPy array with reverse-mode autodiff.

Every differentiable operation runs one op object of
:data:`repro.grad.ops.OPS` through :func:`_apply`.  Its output records
the backward as data, ``(op, ins, ctx, meta, need)``: the op object, the
input arrays, whatever its forward kernel kept for backward, its
arguments and which inputs need gradients.  No closure is made per op.
Calling :meth:`Tensor.backward` on a scalar loss orders the recorded
nodes by :func:`_toposort` and calls each record's ``op.backward`` in
reverse order, handing its gradients to the inputs' ``_accumulate``.

Gradients are accumulated into ``Tensor.grad`` as plain NumPy arrays (there
is no higher-order differentiation; the paper's experiments do not need it).
"""

from __future__ import annotations

import contextlib

import numpy as np

from repro.grad.ops import OPS, _unbroadcast

_GRAD_ENABLED = True

#: the active capture tape (see :mod:`repro.grad.capture`), or None.  When
#: set, every op additionally appends a (kind, out, parents, meta) record —
#: independent of grad mode, so inference programs can be captured too.
_TAPE = None


def is_grad_enabled() -> bool:
    """Return whether operations currently record the autodiff graph."""
    return _GRAD_ENABLED


def active_tape():
    """The capture tape currently recording ops, or None."""
    return _TAPE


def _set_tape(tape):
    """Install ``tape`` as the active capture tape; returns the previous one."""
    global _TAPE
    previous = _TAPE
    _TAPE = tape
    return previous


@contextlib.contextmanager
def no_grad():
    """Context manager that disables graph recording (e.g. for evaluation)."""
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


def _as_array(value, dtype=None) -> np.ndarray:
    if isinstance(value, Tensor):
        raise TypeError("expected array-like, got Tensor; unwrap with .data")
    array = np.asarray(value, dtype=dtype)
    if array.dtype == np.float16:
        array = array.astype(np.float32)
    return array


class Tensor:
    """An n-dimensional array that supports reverse-mode differentiation.

    Parameters
    ----------
    data:
        Array-like payload.  Integer arrays are allowed (e.g. class labels)
        but cannot require gradients.
    requires_grad:
        Whether gradients should be accumulated into :attr:`grad` during
        :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_record", "_parents", "_consumed")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_array(data)
        if requires_grad and not np.issubdtype(self.data.dtype, np.floating):
            raise TypeError(
                f"only floating tensors can require grad, got {self.data.dtype}"
            )
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        #: ``(op, ins, ctx, meta, need)`` of the op that made this tensor,
        #: while its backward is pending; see :func:`_apply`
        self._record: tuple | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._consumed = False

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def zeros(*shape: int, requires_grad: bool = False, dtype=np.float32) -> "Tensor":
        return Tensor(np.zeros(shape, dtype=dtype), requires_grad=requires_grad)

    @staticmethod
    def ones(*shape: int, requires_grad: bool = False, dtype=np.float32) -> "Tensor":
        return Tensor(np.ones(shape, dtype=dtype), requires_grad=requires_grad)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data.item())

    def detach(self) -> "Tensor":
        """Return a tensor sharing data but cut off from the graph."""
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=self.requires_grad)

    def __repr__(self) -> str:
        grad_note = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({self.data!r}{grad_note})"

    def __len__(self) -> int:
        return len(self.data)

    # ------------------------------------------------------------------
    # Graph machinery
    # ------------------------------------------------------------------
    def _accumulate(self, grad: np.ndarray, fresh: bool = False) -> None:
        """Add ``grad`` into this tensor's ``.grad`` buffer.

        ``fresh=True`` promises the caller hands over a newly-allocated
        array it will never touch again; on first accumulation that array
        is adopted directly instead of being copied (the dtype must match
        and the array must be writable — broadcast views are not).  A
        gradient of another shape is summed down to this one first, and
        that sum is adopted like a fresh array.
        """
        array = grad if grad.__class__ is np.ndarray else np.asarray(grad)
        data = self.data
        value = array if array.shape == data.shape else _unbroadcast(array, data.shape)
        if self.grad is not None:
            self.grad += value
        elif (
            (fresh or value is not grad)
            and value.dtype == data.dtype
            and value.flags.writeable
        ):
            self.grad = value
        else:
            self.grad = value.astype(data.dtype, copy=True)

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor through the recorded graph.

        Parameters
        ----------
        grad:
            Gradient of the final objective w.r.t. this tensor.  Defaults
            to 1 for scalar tensors (the usual loss case).
        """
        if not self.requires_grad:
            raise RuntimeError("tensor does not require grad")
        if self._consumed:
            raise RuntimeError(
                "backward() was already called on this tensor; the graph is "
                "freed after the first pass — recompute the loss to "
                "differentiate again"
            )
        self._consumed = True
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar outputs")
            seed = np.empty_like(self.data)  # np.ones_like minus its wrapper
            seed.fill(1)
            self._accumulate(seed, fresh=True)
        else:
            self._accumulate(np.asarray(grad, dtype=self.data.dtype))
        for node in reversed(_toposort(self)):
            record = node._record
            if record is None or node.grad is None:
                continue
            op, ins, ctx, meta, need = record
            grads = op.backward(node.grad, ins, ctx, meta, need, (), None)
            for parent, item in zip(node._parents, grads):
                if item is not None:
                    parent._accumulate(item[0], item[1])
            # Free intermediate gradients/graph references eagerly;
            # leaves (no parents) keep their grads for the optimizer.
            node._record = None
            node._parents = ()
            if node is not self:
                node.grad = None

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # Ops (each one entry of the op table)
    # ------------------------------------------------------------------
    def _coerce(self, other) -> "Tensor":
        if isinstance(other, Tensor):
            return other
        return Tensor(np.asarray(other, dtype=self.data.dtype))

    def __add__(self, other) -> "Tensor":
        return _apply("add", (self, self._coerce(other)))

    __radd__ = __add__

    def __sub__(self, other) -> "Tensor":
        return _apply("sub", (self, self._coerce(other)))

    def __rsub__(self, other) -> "Tensor":
        return self._coerce(other).__sub__(self)

    def __mul__(self, other) -> "Tensor":
        return _apply("mul", (self, self._coerce(other)))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        return _apply("div", (self, self._coerce(other)))

    def __rtruediv__(self, other) -> "Tensor":
        return self._coerce(other).__truediv__(self)

    def __pow__(self, exponent: float) -> "Tensor":
        if isinstance(exponent, Tensor):
            raise TypeError("tensor exponents are not supported")
        return _apply("pow", (self,), {"exponent": exponent})

    def relu(self) -> "Tensor":
        return _apply("relu", (self,))

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return _apply("sum", (self,), {"axis": axis, "keepdims": keepdims})

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        count = self.data.size if axis is None else _axis_size(self.data.shape, axis)
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Biased (population) variance, matching batch-norm semantics."""
        centered = self - self.mean(axis=axis, keepdims=True)
        return (centered * centered).mean(axis=axis, keepdims=keepdims)

    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return _apply("reshape", (self,), {"shape": shape})

    # ------------------------------------------------------------------
    # Comparison (non-differentiable, returns plain arrays)
    # ------------------------------------------------------------------
    def argmax(self, axis=None) -> np.ndarray:
        return self.data.argmax(axis=axis)


def _axis_size(shape: tuple[int, ...], axis) -> int:
    if isinstance(axis, int):
        return shape[axis]
    return int(np.prod([shape[a] for a in axis]))


def _toposort(root: Tensor) -> list[Tensor]:
    """The op outputs under ``root`` in the post-order of an iterative DFS.

    Reversed, it is the order :meth:`Tensor.backward` runs the backward
    records in; the capture compiler schedules replay from this same
    list, so replayed accumulation matches eager bit for bit.  Leaves
    (tensors with no parents) are never pushed: they run no backward, and
    leaving them out moves no other node.  The order is the DFS's, not
    creation order: on graphs where a tensor feeds several ops (batch
    norm, residual blocks) the two differ, and so would the order in
    which that tensor's gradients are summed.  (Tensors hash by
    identity: ``Tensor`` defines no ``__eq__``.)
    """
    ordered: list[Tensor] = []
    seen: set[Tensor] = set()
    # An expanded node goes back on the stack beneath _DONE: it is emitted
    # when the marker pops, after everything pushed above it.
    stack: list = [root]
    while stack:
        node = stack.pop()
        if node is _DONE:
            ordered.append(stack.pop())
            continue
        if node in seen:
            continue
        seen.add(node)
        stack.append(node)
        stack.append(_DONE)
        for parent in node._parents:
            if parent._parents and parent not in seen:
                stack.append(parent)
    return ordered


#: the marker above a node on :func:`_toposort`'s stack that is due out
_DONE = object()


def _apply(op, parents: tuple, meta=None) -> Tensor:
    """Run ``op`` (a kind of the op table, or an :class:`~repro.grad.ops.Op`)
    on ``parents`` eagerly.

    The forward kernel runs with no lead axes and no kept buffers.  When
    grad mode is on and a parent requires grad, the output records its
    backward as data (see the module docstring), which
    :meth:`Tensor.backward` runs.  This runs for every op of every eager
    step, so the output is built slot by slot rather than through
    ``Tensor.__init__``: a kernel's ndarray result needs none of its checks.
    """
    if op.__class__ is str:
        op = OPS[op]
    ins = []
    need = []
    for p in parents:
        ins.append(p.data)
        need.append(p.requires_grad)
    data, ctx = op.forward(ins, meta, (), None)
    if data.__class__ is not np.ndarray or data.dtype.char == "e":
        # NumPy scalars from full reductions; float16 is widened.
        data = _as_array(data)
    out = object.__new__(Tensor)
    out.data = data
    out.grad = None
    out._consumed = False
    if _GRAD_ENABLED and True in need:
        out.requires_grad = True
        out._parents = parents
        out._record = (op, ins, ctx, meta, need)
    else:
        out.requires_grad = False
        out._parents = ()
        out._record = None
    if _TAPE is not None:
        _TAPE.record(op.kind, out, parents, meta)
    return out
