"""Optimizers for local training.

``SGD`` carries two extensions used by the federated algorithms:

- ``proximal_mu`` / :meth:`SGD.set_anchor`: adds ``mu * (w - w_anchor)`` to
  each gradient before the update, implementing the FedProx local objective
  (Algorithm 1, line 14 of the paper) without touching the loss graph.
- :meth:`SGD.set_correction`: adds a fixed per-parameter correction to each
  gradient, implementing SCAFFOLD's ``- c_i + c`` drift correction
  (Algorithm 2, line 20 of the paper).

Both follow the paper's formulation where the extra terms act on the raw
gradient *before* momentum is applied.

``SGD`` moves its parameters into one ``(P,)`` vector, each ``param.data``
a view into it, and updates it in place (:class:`StackedSGD`: a stacked
program's ``(K, P)`` block): hold a copy of ``param.data``, never a reference.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.grad.ops import reset_im2col_workspace
from repro.grad.nn.module import Parameter
from repro.grad.serialize import column_ranges, column_views


class Optimizer:
    """Base optimizer: holds parameters and clears their gradients."""

    def __init__(self, params: Iterable[Parameter]):
        self.params = list(params)
        if not self.params:
            raise ValueError("optimizer got an empty parameter list")

    def zero_grad(self) -> None:
        # A zero_grad marks a training-step boundary: the previous step's
        # graph is dead, so pooled im2col buffers may be recycled.
        reset_im2col_workspace()
        for param in self.params:
            param.grad = None

    def step(self) -> None:
        raise NotImplementedError


class SGD(Optimizer):
    """SGD with momentum, proximal term and corrections, over one vector.

    Parameters
    ----------
    params:
        Parameters to update.
    lr:
        Learning rate (the paper uses 0.01, or 0.1 for rcv1).
    momentum:
        Momentum factor (the paper uses 0.9).
    proximal_mu:
        FedProx ``mu``.  When positive, :meth:`set_anchor` must be called
        with the round's global weights before training.
    """

    def __init__(
        self,
        params: Iterable[Parameter],
        lr: float,
        momentum: float = 0.0,
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
        self.proximal_mu = proximal_mu
        self._anchor = self._correction = None
        self._correction_mode = "step"
        self._block, self._shapes = self._block_and_shapes()
        self._cols = column_ranges(self._shapes)
        self._grad = np.empty_like(self._block)
        self._grad_views = column_views(self._grad, self._shapes)
        self._velocity = np.empty_like(self._block) if momentum else None
        self._tmp = np.empty_like(self._block) if proximal_mu > 0 else None
        self.reset_state()

    def _block_and_shapes(self) -> tuple[np.ndarray, list]:
        shapes = [param.data.shape for param in self.params]
        block = np.concatenate([param.data.reshape(-1) for param in self.params])
        self._views = column_views(block, shapes)
        for param, view in zip(self.params, self._views):
            param.data = view
        return block, shapes

    def set_anchor(self, anchor: Sequence[np.ndarray] | None) -> None:
        """Fix the proximal anchor (the global model of the current round)."""
        self._anchor = None if anchor is None else self._flat(anchor, "anchor")

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
        self._correction = (
            None if correction is None else self._flat(correction, "correction")
        )
        self._correction_mode = mode

    def _flat(self, arrays, label: str) -> np.ndarray:
        """Per-entry arrays, shape-checked and laid out like the block, in
        its dtype (the library passes float32)."""
        arrays, lead = list(arrays), self._block.shape[:-1]
        want = [None if shape is None else lead + shape for shape in self._shapes]
        got = [None if w is None else np.shape(a) for a, w in zip(arrays, want)]
        if len(arrays) != len(want) or got != want:
            raise ValueError(f"{label} shapes {got} do not match {want}")
        return np.concatenate(
            [np.reshape(a, (*lead, -1)) for a, w in zip(arrays, want) if w is not None],
            axis=-1,
            dtype=self._block.dtype,
        )

    def _direction(self, cols: slice) -> np.ndarray:
        """What columns ``cols`` of the block step along: the update rule
        short of the final write, in place, each term elementwise in the
        per-tensor rule's operand order, so every element rounds as before."""
        direction = grad = self._grad[..., cols]
        if self.proximal_mu > 0:
            tmp = self._tmp[..., cols]
            np.subtract(self._block[..., cols], self._anchor[..., cols], out=tmp)
            np.multiply(self.proximal_mu, tmp, out=tmp)
            np.add(grad, tmp, out=grad)
        if self._correction is not None and self._correction_mode == "grad":
            np.add(grad, self._correction[..., cols], out=grad)
        if self.momentum:
            # `m * v + g`, scale then add; from v = -0.0 that is g's bits.
            direction = self._velocity[..., cols]
            np.multiply(direction, self.momentum, out=direction)
            np.add(direction, grad, out=direction)
        if self._correction is not None and self._correction_mode == "step":
            np.add(direction, self._correction[..., cols], out=grad)
            direction = grad
        return direction

    def _apply(self, grads: Sequence[np.ndarray | None]) -> None:
        """Gather ``grads`` into the flat gradient and update in place: one
        pass when every entry has a gradient, else one per entry that has."""
        present = []
        for index, (view, grad) in enumerate(zip(self._grad_views, grads)):
            if view is not None and grad is not None:
                np.copyto(view, grad)
                present.append(index)
        if present and self.proximal_mu > 0 and self._anchor is None:
            raise RuntimeError("proximal_mu > 0 but no anchor set; call set_anchor()")
        full = len(present) == len(self._cols) - self._cols.count(None)
        for cols in [slice(None)] if full else [self._cols[i] for i in present]:
            update, block = self._grad[..., cols], self._block[..., cols]
            # (-lr) * d + w rounds exactly like w - lr * d.
            np.multiply(self._direction(cols), -self.lr, out=update)
            np.add(update, block, out=block)

    def step(self) -> None:
        """Apply one update; parameters without gradients are skipped."""
        for index, (param, view) in enumerate(zip(self.params, self._views)):
            if param.data is not view:
                raise RuntimeError(
                    f"parameter {index} {view.shape} was rebound under its optimizer"
                )
        self._apply([param.grad for param in self.params])

    def reset_state(self) -> None:
        """Drop momentum buffers (used when a party starts a new round)."""
        if self._velocity is not None:
            self._velocity.fill(-0.0)


class StackedSGD(SGD):
    """:class:`SGD` over ``(K, ...)`` parameter stacks for stacked-client replay.

    The stacks (None entries and None gradients skipped) are in-order column
    views of one ``(K, P)`` block, as ``StackedStep.param_stack`` hands them
    out; each client row steps bit for bit like a serial :class:`SGD`.
    Gradients arrive in :meth:`step`; anchors/corrections are ``(K,) + shape``.
    """

    def _block_and_shapes(self) -> tuple[np.ndarray, list]:
        self.stacks = self.params
        present = [stack for stack in self.stacks if stack is not None]
        shapes = [None if stack is None else stack.shape[1:] for stack in self.stacks]
        block = present[0].base if present else None
        if (
            not isinstance(block, np.ndarray)
            or block.size != sum(stack.size for stack in present)
            or any(
                stack is not None
                and stack.__array_interface__ != view.__array_interface__
                for stack, view in zip(self.stacks, column_views(block, shapes))
            )
        ):
            raise ValueError("stacks must be in-order column views of one block")
        return block, shapes

    def step(self, grads: Sequence[np.ndarray | None]) -> None:
        """Apply one update from ``grads`` (aligned with the stacks)."""
        self._apply(grads)


class Adam(Optimizer):
    """Adam / AMSGrad for local training.

    The NIID-Bench reference exposes ``--optimizer sgd|adam|amsgrad``;
    this is the counterpart.  Supports the same proximal anchor as
    :class:`SGD` so FedProx composes with adaptive local optimizers.
    """

    def __init__(
        self,
        params: Iterable[Parameter],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
        amsgrad: bool = False,
        proximal_mu: float = 0.0,
    ):
        super().__init__(params)
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        if not (0.0 <= betas[0] < 1.0 and 0.0 <= betas[1] < 1.0):
            raise ValueError(f"betas must be in [0, 1), got {betas}")
        if proximal_mu < 0:
            raise ValueError(f"proximal_mu must be non-negative, got {proximal_mu}")
        self.lr = lr
        self.betas = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.amsgrad = amsgrad
        self.proximal_mu = proximal_mu
        self._m = [np.zeros(p.data.shape, dtype=np.float64) for p in self.params]
        self._v = [np.zeros(p.data.shape, dtype=np.float64) for p in self.params]
        self._v_max = (
            [np.zeros(p.data.shape, dtype=np.float64) for p in self.params]
            if amsgrad
            else None
        )
        self._step_count = 0
        self._anchor: list[np.ndarray] | None = None

    def set_anchor(self, anchor) -> None:
        """Fix the FedProx proximal anchor (see :meth:`SGD.set_anchor`)."""
        if anchor is None:
            self._anchor = None
            return
        anchor = [np.asarray(a) for a in anchor]
        if len(anchor) != len(self.params):
            raise ValueError(
                f"anchor has {len(anchor)} entries for {len(self.params)} params"
            )
        self._anchor = anchor

    def step(self) -> None:
        if self.proximal_mu > 0 and self._anchor is None:
            raise RuntimeError("proximal_mu > 0 but no anchor set; call set_anchor()")
        self._step_count += 1
        beta1, beta2 = self.betas
        bias1 = 1.0 - beta1**self._step_count
        bias2 = 1.0 - beta2**self._step_count
        for index, param in enumerate(self.params):
            if param.grad is None:
                continue
            grad = param.grad.astype(np.float64)
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            if self.proximal_mu > 0:
                grad = grad + self.proximal_mu * (param.data - self._anchor[index])
            m = self._m[index]
            v = self._v[index]
            m[:] = beta1 * m + (1 - beta1) * grad
            v[:] = beta2 * v + (1 - beta2) * grad**2
            if self.amsgrad:
                v_max = self._v_max[index]
                np.maximum(v_max, v, out=v_max)
                denom = np.sqrt(v_max / bias2) + self.eps
            else:
                denom = np.sqrt(v / bias2) + self.eps
            update = (m / bias1) / denom
            param.data = (param.data - self.lr * update).astype(param.data.dtype)

    def reset_state(self) -> None:
        """Drop moment buffers (fresh optimizer semantics per round)."""
        for buf in self._m:
            buf[:] = 0
        for buf in self._v:
            buf[:] = 0
        if self._v_max is not None:
            for buf in self._v_max:
                buf[:] = 0
        self._step_count = 0
