"""The :class:`Tensor` class: a NumPy array with reverse-mode autodiff.

Every differentiable operation produces a new ``Tensor`` whose ``_backward``
closure knows how to push the output gradient to the operation's inputs.
Calling :meth:`Tensor.backward` on a scalar loss topologically sorts the
recorded graph and runs those closures in reverse order.

Gradients are accumulated into ``Tensor.grad`` as plain NumPy arrays (there
is no higher-order differentiation; the paper's experiments do not need it).
"""

from __future__ import annotations

import contextlib
from typing import Callable, Sequence

import numpy as np

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

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "_consumed")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_array(data)
        if requires_grad and not np.issubdtype(self.data.dtype, np.floating):
            raise TypeError(
                f"only floating tensors can require grad, got {self.data.dtype}"
            )
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._backward: Callable[[np.ndarray], None] | None = None
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
    def _attach(
        self, parents: Sequence["Tensor"], backward, kind: str, meta=None
    ) -> "Tensor":
        """Record ``self`` as the output of an op over ``parents``.

        ``backward`` receives the output gradient and is responsible for
        calling ``parent._accumulate(...)`` on each differentiable parent.
        No-op when grad mode is off or no parent requires grad.

        ``kind``/``meta`` describe the op to an active capture tape (see
        :mod:`repro.grad.capture`); a ``kind`` the tape has no kernel for
        invalidates it, and the step falls back to eager execution.
        """
        if _TAPE is not None:
            _TAPE.record(kind, self, tuple(parents), meta)
        if _GRAD_ENABLED and any(p.requires_grad for p in parents):
            self.requires_grad = True
            self._parents = tuple(parents)
            self._backward = backward
        return self

    def _accumulate(self, grad: np.ndarray, fresh: bool = False) -> None:
        """Add ``grad`` into this tensor's ``.grad`` buffer.

        ``fresh=True`` promises the caller hands over a newly-allocated
        array it will never touch again; on first accumulation that array
        is adopted directly instead of being copied (the dtype must match
        and the array must be writable — broadcast views are not).
        """
        value = _unbroadcast(np.asarray(grad), self.data.shape)
        if self.grad is None:
            if (
                (fresh or value is not grad)
                and value.dtype == self.data.dtype
                and value.flags.writeable
            ):
                self.grad = value
            else:
                self.grad = value.astype(self.data.dtype, copy=True)
        else:
            self.grad += value

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
            grad = np.ones_like(self.data)
        self._accumulate(np.asarray(grad, dtype=self.data.dtype))

        ordered: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
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

        for node in reversed(ordered):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                # Free intermediate gradients/graph references eagerly;
                # leaves (no parents) keep their grads for the optimizer.
                node._backward = None
                node._parents = ()
                node.grad = None if node is not self else node.grad

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # Elementwise arithmetic
    # ------------------------------------------------------------------
    def _coerce(self, other) -> "Tensor":
        if isinstance(other, Tensor):
            return other
        return Tensor(np.asarray(other, dtype=self.data.dtype))

    def __add__(self, other) -> "Tensor":
        other = self._coerce(other)
        out = Tensor(self.data + other.data)

        def backward(grad):
            # The same grad object goes to both parents: never adopt it.
            if self.requires_grad:
                self._accumulate(grad)
            if other.requires_grad:
                other._accumulate(grad)

        return out._attach((self, other), backward, "add")

    __radd__ = __add__

    def __sub__(self, other) -> "Tensor":
        other = self._coerce(other)
        out = Tensor(self.data - other.data)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad)
            if other.requires_grad:
                other._accumulate(-grad, fresh=True)

        return out._attach((self, other), backward, "sub")

    def __rsub__(self, other) -> "Tensor":
        return self._coerce(other).__sub__(self)

    def __mul__(self, other) -> "Tensor":
        other = self._coerce(other)
        out = Tensor(self.data * other.data)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * other.data, fresh=True)
            if other.requires_grad:
                other._accumulate(grad * self.data, fresh=True)

        return out._attach((self, other), backward, "mul")

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = self._coerce(other)
        out = Tensor(self.data / other.data)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad / other.data, fresh=True)
            if other.requires_grad:
                other._accumulate(-grad * self.data / (other.data**2), fresh=True)

        return out._attach((self, other), backward, "div")

    def __rtruediv__(self, other) -> "Tensor":
        return self._coerce(other).__truediv__(self)

    def __pow__(self, exponent: float) -> "Tensor":
        if isinstance(exponent, Tensor):
            raise TypeError("tensor exponents are not supported")
        out = Tensor(self.data**exponent)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(
                    grad * exponent * self.data ** (exponent - 1), fresh=True
                )

        return out._attach((self,), backward, "pow", {"exponent": exponent})

    # ------------------------------------------------------------------
    # Unary math
    # ------------------------------------------------------------------
    def relu(self) -> "Tensor":
        out = Tensor(relu_forward(self.data))

        def backward(grad):
            if self.requires_grad:
                # A 1.0/0.0 mask: grad * (x > 0)'s products and layout,
                # without a bool->float cast inside the multiply.
                mask = (self.data > 0).astype(grad.dtype)
                self._accumulate(grad * mask, fresh=True)

        return out._attach((self,), backward, "relu")

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out = Tensor(self.data.sum(axis=axis, keepdims=keepdims))
        in_shape = self.data.shape

        def backward(grad):
            if not self.requires_grad:
                return
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
            self._accumulate(np.broadcast_to(g, in_shape))

        return out._attach((self,), backward, "sum", {"axis": axis, "keepdims": keepdims})

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        count = self.data.size if axis is None else _axis_size(self.data.shape, axis)
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Biased (population) variance, matching batch-norm semantics."""
        centered = self - self.mean(axis=axis, keepdims=True)
        return (centered * centered).mean(axis=axis, keepdims=keepdims)

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out = Tensor(self.data.reshape(shape))
        in_shape = self.data.shape

        def backward(grad):
            # The reshaped view is exclusively ours by now (its owner's
            # grad slot is freed right after this closure runs), so it is
            # safe to adopt.
            if self.requires_grad:
                self._accumulate(grad.reshape(in_shape), fresh=True)

        return out._attach((self,), backward, "reshape", {"shape": out.data.shape})

    # ------------------------------------------------------------------
    # Comparison (non-differentiable, returns plain arrays)
    # ------------------------------------------------------------------
    def argmax(self, axis=None) -> np.ndarray:
        return self.data.argmax(axis=axis)


def _axis_size(shape: tuple[int, ...], axis) -> int:
    if isinstance(axis, int):
        return shape[axis]
    return int(np.prod([shape[a] for a in axis]))


def _swap_last(array: np.ndarray) -> np.ndarray:
    return np.swapaxes(array, -1, -2)


def relu_forward(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``np.where(x > 0, x, 0.0)`` bit for bit, in ``x``'s memory order,
    ~10x cheaper: ``fmax`` maps NaN to 0, and ``+= 0.0`` flushes the
    ``-0.0`` that ``fmax(-0.0, 0.0)`` may return."""
    out = np.fmax(x, 0.0, out=out)
    out += 0.0
    return out

