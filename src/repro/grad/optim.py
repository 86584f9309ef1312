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
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.grad.functional import reset_im2col_workspace
from repro.grad.nn.module import Parameter


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
