"""The kernels as first written: the oracle for the fast ones.

Each function takes the arguments of the kernel it stands in for and
computes it the textbook way, verbatim from the first implementation:
``np.where`` ReLU with a bool-mask backward, im2col + ``argmax`` + a
fancy gather for the max pool, zeros + a nested-loop col2im for its
backward, the linear layer as a ``transpose``/``matmul``/``add``
composition of the first autograd ops (:data:`TRANSPOSE` and
:data:`MATMUL`, op objects outside the op table that only run eagerly),
and the local optimizers as per-tensor loops (:class:`SGD` /
:class:`StackedSGD`, verbatim from before the optimizers updated one
flat block).  :data:`RELU` and :data:`LINEAR` are op objects over those
kernels.  :func:`backward` walks a graph in the first ``_toposort``'s
order, leaves included, which fixes the order multi-consumer gradients
are summed in.  :func:`swap_in`
installs them in the op table and in place of the kernels the op objects
call, so eager, compiled and stacked runs alike can be repeated on them.
"""

import math
from collections import Counter
from typing import Iterable, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.federated import executor, trainer
from repro.grad import ops
from repro.grad.nn.module import Parameter
from repro.grad.ops import _unbroadcast
from repro.grad.optim import Optimizer
from repro.grad.tensor import _apply


def _swap_last(array):
    return np.swapaxes(array, -1, -2)


def _out_size(size, kernel, stride, padding):
    return (size + 2 * padding - kernel) // stride + 1


def relu_forward(x, out=None):
    value = np.where(x > 0, x, 0.0)
    if out is None:
        return value
    np.copyto(out, value)
    return out


def tensor_relu(self):
    return _apply(RELU, (self,))


def im2col(images, kernel, stride=1, padding=0):
    n, c, h, w = images.shape
    out_h = _out_size(h, kernel, stride, padding)
    out_w = _out_size(w, kernel, stride, padding)
    if padding > 0:
        padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=images.dtype)
        padded[:, :, padding : padding + h, padding : padding + w] = images
        images = padded
    strides = images.strides
    windows = as_strided(
        images,
        shape=(n, c, out_h, out_w, kernel, kernel),
        strides=(
            strides[0],
            strides[1],
            strides[2] * stride,
            strides[3] * stride,
            strides[2],
            strides[3],
        ),
        writeable=False,
    )
    columns = np.ascontiguousarray(windows.transpose(0, 2, 3, 1, 4, 5))
    return columns.reshape(n * out_h * out_w, c * kernel * kernel)


def col2im(columns, image_shape, kernel, stride=1, padding=0, scratch=None):
    *lead, n, c, h, w = image_shape
    out_h = _out_size(h, kernel, stride, padding)
    out_w = _out_size(w, kernel, stride, padding)
    padded = np.zeros(
        (*lead, n, c, h + 2 * padding, w + 2 * padding), dtype=columns.dtype
    )
    cols = np.moveaxis(
        columns.reshape(*lead, n, out_h, out_w, c, kernel, kernel), -3, -5
    )
    for ki in range(kernel):
        h_stop = ki + stride * out_h
        for kj in range(kernel):
            w_stop = kj + stride * out_w
            padded[..., ki:h_stop:stride, kj:w_stop:stride] += cols[..., ki, kj]
    if padding > 0:
        return padded[..., padding:-padding, padding:-padding]
    return padded


def max_pool_forward(images, kernel, stride, scratch=None):
    *lead, h, w = images.shape
    as_batch = images.reshape(math.prod(lead), 1, h, w)
    columns = im2col(as_batch, kernel, stride, 0)
    arg = columns.argmax(axis=1)
    out_flat = columns[np.arange(columns.shape[0]), arg]
    out_h = _out_size(h, kernel, stride, 0)
    out_w = _out_size(w, kernel, stride, 0)
    return out_flat.reshape(*lead, out_h, out_w), arg


def max_pool_backward(grad, arg, image_shape, kernel, stride, scratch=None):
    *lead, h, w = image_shape
    planes = math.prod(lead)
    grad_cols = np.zeros((arg.shape[0], kernel * kernel), dtype=grad.dtype)
    grad_cols[np.arange(arg.shape[0]), arg] = grad.reshape(-1)
    grad_images = col2im(grad_cols, (planes, 1, h, w), kernel, stride, 0)
    return grad_images.reshape(image_shape)


class Transpose(ops.Op):
    """The first ``Tensor.transpose``: a view, and its inverse backward."""

    def forward(self, ins, meta, lead, scratch):
        return ins[0].transpose(meta["axes"]), None

    def backward(self, grad, ins, ctx, meta, need, lead, scratch):
        inverse = np.argsort(meta["axes"])
        return [(grad.transpose(inverse), True)]


class Matmul(ops.Op):
    """The first ``Tensor.__matmul__``: ``@`` and its two products."""

    def forward(self, ins, meta, lead, scratch):
        return ins[0] @ ins[1], None

    def backward(self, grad, ins, ctx, meta, need, lead, scratch):
        a, b = ins
        grads = [None, None]
        if need[0]:
            if b.ndim == 1:
                grads[0] = (np.outer(grad, b) if grad.ndim else grad * b, True)
            else:
                grads[0] = (grad @ _swap_last(b), True)
        if need[1]:
            if a.ndim == 1:
                grads[1] = (np.outer(a, grad) if grad.ndim else grad * a, True)
            else:
                grads[1] = (_swap_last(a) @ grad, True)
        return grads


def tensor_transpose(self, *axes):
    axes_tuple = axes if axes else tuple(reversed(range(self.data.ndim)))
    return _apply(TRANSPOSE, (self,), {"axes": tuple(int(a) for a in axes_tuple)})


def tensor_matmul(self, other):
    return _apply(MATMUL, (self, self._coerce(other)))


def linear(x, weight, bias=None):
    out = tensor_matmul(x, tensor_transpose(weight))
    if bias is not None:
        out = out + bias
    return out


class Relu(ops.Op):
    """ReLU as :func:`tensor_relu` computes it: ``np.where`` values and a
    bool-mask backward."""

    def forward(self, ins, meta, lead, scratch):
        return ops._into(scratch, "out", relu_forward, ins[0]), None

    def backward(self, grad, ins, ctx, meta, need, lead, scratch):
        mask = ins[0] > 0
        return [(grad * mask, True)]


class Linear(ops.Op):
    """The array calls of :func:`linear`'s composition, one op: transpose
    the weight, ``matmul``, add the bias into a fresh array; backward,
    ``tensor_matmul``'s products and the transpose's inverse."""

    def forward(self, ins, meta, lead, scratch):
        x, weight, *bias = ins
        out = x @ _swap_last(weight)
        if bias:
            out = out + bias[0]
        return out, None

    def backward(self, grad, ins, ctx, meta, need, lead, scratch):
        x, weight, *bias = ins
        weight_t = _swap_last(weight)
        grads = [None] * len(ins)
        if need[0]:
            grads[0] = (grad @ _swap_last(weight_t), True)
        if need[1]:
            if x.ndim == 1:
                grad_t = np.outer(x, grad) if grad.ndim else grad * x
            else:
                grad_t = _swap_last(x) @ grad
            grad_t = _unbroadcast(grad_t, weight_t.shape, len(lead))
            grads[1] = (_swap_last(grad_t), True)
        if bias and need[2]:
            grads[2] = (grad, False)
        return grads


RELU = Relu("relu")
LINEAR = Linear("linear", stacked_rank=2)
#: not in the op table: only :func:`linear`'s eager composition runs them
TRANSPOSE = Transpose("transpose")
MATMUL = Matmul("matmul")


def toposort(root):
    """The graph under ``root``, leaves included, in the post-order of an
    iterative DFS: the first ``tensor._toposort``."""
    ordered = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            ordered.append(node)
            continue
        if node in seen:
            continue
        seen.add(node)
        stack.append((node, True))
        for parent in node._parents:
            if parent not in seen:
                stack.append((parent, False))
    return ordered


def backward(loss):
    """``loss.backward()`` walking :func:`toposort`'s order: each node's
    backward record runs once its gradient is complete, and a tensor that
    feeds several ops sums their gradients in that order."""
    loss._accumulate(np.ones_like(loss.data))
    for node in reversed(toposort(loss)):
        if node._record is not None and node.grad is not None:
            op, ins, ctx, meta, need = node._record
            grads = op.backward(node.grad, ins, ctx, meta, need, (), None)
            for parent, item in zip(node._parents, grads):
                if item is not None:
                    parent._accumulate(*item)
            node._record = None
            node._parents = ()
            node.grad = None if node is not loss else node.grad


class SGD(Optimizer):
    """SGD with momentum, weight decay, proximal term and corrections.

    Parameters
    ----------
    params:
        Parameters to optimize.
    lr:
        Learning rate (the paper uses 0.01, or 0.1 for rcv1).
    momentum:
        Momentum factor (the paper uses 0.9).
    weight_decay:
        L2 penalty added to the gradient.
    proximal_mu:
        FedProx ``mu``.  When positive, :meth:`set_anchor` must be called
        with the round's global weights before training.
    """

    def __init__(
        self,
        params: Iterable[Parameter],
        lr: float,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
        proximal_mu: float = 0.0,
    ):
        super().__init__(params)
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        if proximal_mu < 0:
            raise ValueError(f"proximal_mu must be non-negative, got {proximal_mu}")
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.proximal_mu = proximal_mu
        self._velocity: list[np.ndarray | None] = [None] * len(self.params)
        self._anchor: list[np.ndarray | None] | None = None
        self._correction: list[np.ndarray | None] | None = None
        self._correction_mode = "step"

    def set_anchor(self, anchor: Sequence[np.ndarray] | None) -> None:
        """Fix the proximal anchor (the global model of the current round)."""
        self._anchor = None if anchor is None else self._checked(anchor, "anchor")

    def set_correction(
        self, correction: Sequence[np.ndarray] | None, mode: str = "step"
    ) -> None:
        """Fix the additive correction (SCAFFOLD's ``c - c_i``).

        ``mode`` decides where it enters the update:

        - ``"step"`` (default): applied directly to the parameters after
          the (possibly momentum-smoothed) gradient step —
          ``w -= lr * correction`` — matching the NIID-Bench reference
          implementation.  Momentum never sees the correction, which keeps
          SCAFFOLD stable when local steps are few.
        - ``"grad"``: added to the raw gradient before momentum, the
          literal reading of Algorithm 2 line 20.  With momentum ``m`` the
          correction is asymptotically amplified by ``1/(1-m)``, which can
          destabilize training at small local-step counts.
        """
        if mode not in ("step", "grad"):
            raise ValueError(f"mode must be 'step' or 'grad', got {mode!r}")
        if correction is None:
            self._correction = None
            return
        self._correction = self._checked(correction, "correction")
        self._correction_mode = mode

    def _shapes(self) -> list[tuple | None]:
        """Per-entry shape an anchor / correction array must have."""
        return [param.data.shape for param in self.params]

    def _checked(self, arrays, label: str) -> list[np.ndarray | None]:
        arrays = [None if a is None else np.asarray(a) for a in arrays]
        shapes = self._shapes()
        if len(arrays) != len(shapes):
            raise ValueError(
                f"{label} has {len(arrays)} entries for {len(shapes)} params"
            )
        for array, shape in zip(arrays, shapes):
            if array is not None and shape is not None and array.shape != shape:
                raise ValueError(
                    f"{label} shape {array.shape} does not match "
                    f"parameter shape {shape}"
                )
        return arrays

    def _direction(self, index: int, data: np.ndarray, grad: np.ndarray) -> np.ndarray:
        """What entry ``index`` steps along, given its values and gradient.

        The whole update rule short of the final write.  Every term is
        elementwise, so ``data`` / ``grad`` may carry a leading client axis
        (:class:`StackedSGD`) and each slice still rounds exactly like a
        lone run.
        """
        if self.weight_decay:
            grad = grad + self.weight_decay * data
        if self.proximal_mu > 0:
            if self._anchor is None:
                raise RuntimeError(
                    "proximal_mu > 0 but no anchor set; call set_anchor()"
                )
            grad = grad + self.proximal_mu * (data - self._anchor[index])
        correction = self._correction
        if correction is not None and self._correction_mode == "grad":
            grad = grad + correction[index]
        if self.momentum:
            velocity = self._velocity[index]
            if velocity is None:
                velocity = self._velocity[index] = np.array(grad, copy=True)
            else:
                # In place, same rounding as `m * v + g`: scale then add.
                np.multiply(velocity, self.momentum, out=velocity)
                velocity += grad
            grad = velocity
        if correction is not None and self._correction_mode == "step":
            grad = grad + correction[index]
        return grad

    def step(self) -> None:
        """Apply one update; parameters without gradients are skipped."""
        neg_lr = -self.lr
        for index, param in enumerate(self.params):
            if param.grad is None:
                continue
            grad = self._direction(index, param.data, param.grad)
            # One temporary instead of two; (-lr) * g + w rounds exactly
            # like w - lr * g, so the update stays bit-identical.  The
            # explicit ``out=`` keeps the parameter's memory layout: linear
            # weight grads are transposed views (F-contiguous), and letting
            # ``np.multiply`` inherit that layout flips the weights to
            # F-order after one step, which routes later GEMMs down a
            # different BLAS path and breaks bitwise parity with replayed
            # executions whose arenas are C-contiguous.
            update = np.multiply(grad, neg_lr, out=np.empty_like(param.data))
            update += param.data
            param.data = update

    def reset_state(self) -> None:
        """Drop momentum buffers (used when a party starts a new round)."""
        self._velocity = [None] * len(self.params)


class StackedSGD(SGD):
    """:class:`SGD` over ``(K, ...)`` parameter stacks for stacked-client replay.

    The update rule is :meth:`SGD._direction` itself, applied with a
    leading client axis, so each slice updates bit-identically to a serial
    :class:`SGD` run.  What differs is the plumbing: gradients arrive as
    an argument to :meth:`step` (``zero_grad`` has nothing to clear and
    does not apply), and the final write is an in-place ``np.copyto``
    rather than a rebind — the stacks are arena buffers a compiled
    :class:`~repro.grad.capture.StackedStep` holds views into, and
    rebinding would orphan them.

    ``stacks`` aligns with ``model.parameters()``; None entries (and None
    gradients) are skipped exactly like parameters without gradients.
    Anchors and corrections are per-client, i.e. ``(K,) + shape`` arrays.
    """

    def __init__(
        self,
        stacks: Sequence[np.ndarray | None],
        lr: float,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
        proximal_mu: float = 0.0,
    ):
        super().__init__(stacks, lr, momentum, weight_decay, proximal_mu)
        self.stacks = self.params

    def _shapes(self) -> list[tuple | None]:
        return [None if stack is None else stack.shape for stack in self.stacks]

    def step(self, grads: Sequence[np.ndarray | None]) -> None:
        """Apply one update from ``grads`` (aligned with the stacks)."""
        neg_lr = -self.lr
        for index, stack in enumerate(self.stacks):
            if stack is None or grads[index] is None:
                continue
            update = np.multiply(self._direction(index, stack, grads[index]), neg_lr)
            update += stack
            np.copyto(stack, update)


def swap_in(monkeypatch) -> Counter:
    """Run every ReLU, max pool, col2im, linear layer and local SGD step
    on the reference kernels; returns a counter of the calls each got."""
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for op in (RELU, LINEAR):
        monkeypatch.setattr(op, "forward", counted(op.kind, op.forward))
        monkeypatch.setitem(ops.OPS, op.kind, op)
    for kernel in (col2im, max_pool_forward, max_pool_backward):
        monkeypatch.setattr(ops, kernel.__name__, counted(kernel.__name__, kernel))
    for optimizer in (SGD, StackedSGD):
        monkeypatch.setattr(
            optimizer, "step", counted(optimizer.__name__, optimizer.step)
        )
    monkeypatch.setattr(trainer, "SGD", SGD)
    monkeypatch.setattr(executor, "StackedSGD", StackedSGD)
    return calls
