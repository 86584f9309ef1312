"""The ``Module`` base class: parameter/buffer registry and state dicts.

State dicts are plain ``dict[str, numpy.ndarray]`` (always copies), which is
what the federated layer ships between server and parties.  Buffers hold
non-trained state such as batch-norm running statistics — the distinction
matters for reproducing the paper's Finding 7 (BN aggregation instability)
and the FedBN-style ablation.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator

import numpy as np

from repro.grad.ops import reset_im2col_workspace
from repro.grad.tensor import Tensor


class Parameter(Tensor):
    """A trainable tensor; registered automatically on attribute assignment."""

    def __init__(self, data):
        super().__init__(np.asarray(data, dtype=np.float32), requires_grad=True)


class Module:
    """Base class for all layers and models.

    Subclasses assign :class:`Parameter`, buffer arrays (via
    :meth:`register_buffer`) and child modules as attributes; the registry
    machinery here makes them discoverable for optimizers, state dicts and
    train/eval mode switching.
    """

    def __init__(self):
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_buffers", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "training", True)

    # ------------------------------------------------------------------
    # Registry
    # ------------------------------------------------------------------
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
            self._buffers.pop(name, None)
            self._modules.pop(name, None)
        elif isinstance(value, Module):
            self._modules[name] = value
            self._parameters.pop(name, None)
            self._buffers.pop(name, None)
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        """Register non-trained state (e.g. BN running mean/var)."""
        self._buffers[name] = np.asarray(value)
        object.__setattr__(self, name, self._buffers[name])

    def _set_buffer(self, name: str, value: np.ndarray) -> None:
        """Update a registered buffer in place of the registry entry."""
        if name not in self._buffers:
            raise KeyError(f"no buffer named {name!r}")
        self._buffers[name] = np.asarray(value)
        object.__setattr__(self, name, self._buffers[name])

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    def named_modules(self, prefix: str = "") -> Iterator[tuple[str, "Module"]]:
        yield prefix, self
        for name, child in self._modules.items():
            child_prefix = f"{prefix}.{name}" if prefix else name
            yield from child.named_modules(child_prefix)

    def modules(self) -> Iterator["Module"]:
        for _, module in self.named_modules():
            yield module

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for module_name, module in self.named_modules(prefix):
            for name, param in module._parameters.items():
                full = f"{module_name}.{name}" if module_name else name
                yield full, param

    def parameters(self) -> list[Parameter]:
        return [param for _, param in self.named_parameters()]

    def named_buffers(self, prefix: str = "") -> Iterator[tuple[str, np.ndarray]]:
        for module_name, module in self.named_modules(prefix):
            for name, buffer in module._buffers.items():
                full = f"{module_name}.{name}" if module_name else name
                yield full, buffer

    def buffers(self) -> list[np.ndarray]:
        return [buffer for _, buffer in self.named_buffers()]

    # ------------------------------------------------------------------
    # Mode / gradients
    # ------------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        for module in self.modules():
            object.__setattr__(module, "training", mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        # Step boundary: recycle pooled im2col buffers (see ops).
        reset_im2col_workspace()
        for param in self.parameters():
            param.grad = None

    def num_parameters(self) -> int:
        """Total number of trainable scalars."""
        return sum(p.size for p in self.parameters())

    # ------------------------------------------------------------------
    # State dict
    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        """Snapshot of parameters and buffers (copies, safe to mutate)."""
        state: dict[str, np.ndarray] = {}
        for name, param in self.named_parameters():
            state[name] = param.data.copy()
        for name, buffer in self.named_buffers():
            state[name] = np.asarray(buffer).copy()
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load a snapshot produced by :meth:`state_dict`.

        Raises ``KeyError`` on missing entries and ``ValueError`` on shape
        mismatch — silent partial loads hide real bugs in FL aggregation.
        """
        param_index = dict(self.named_parameters())
        buffer_owners = self._buffer_owners()
        expected = set(param_index) | set(buffer_owners)
        missing = expected - set(state)
        unexpected = set(state) - expected
        if missing or unexpected:
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)}, "
                f"unexpected={sorted(unexpected)}"
            )
        for name, param in param_index.items():
            value = np.asarray(state[name], dtype=param.data.dtype)
            if value.shape != param.data.shape:
                raise ValueError(
                    f"shape mismatch for {name}: "
                    f"{value.shape} vs {param.data.shape}"
                )
            param.data = value.copy()
        for name, (module, local_name) in buffer_owners.items():
            current = module._buffers[local_name]
            value = np.asarray(state[name], dtype=np.asarray(current).dtype)
            if value.shape != np.asarray(current).shape:
                raise ValueError(
                    f"shape mismatch for buffer {name}: "
                    f"{value.shape} vs {np.asarray(current).shape}"
                )
            module._set_buffer(local_name, value.copy())

    def _buffer_owners(self) -> dict[str, tuple["Module", str]]:
        owners: dict[str, tuple[Module, str]] = {}
        for module_name, module in self.named_modules():
            for name in module._buffers:
                full = f"{module_name}.{name}" if module_name else name
                owners[full] = (module, name)
        return owners

    # ------------------------------------------------------------------
    # Calling
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def __repr__(self) -> str:
        child_lines = []
        for name, child in self._modules.items():
            child_repr = repr(child).replace("\n", "\n  ")
            child_lines.append(f"  ({name}): {child_repr}")
        body = "\n".join(child_lines)
        if body:
            return f"{type(self).__name__}(\n{body}\n)"
        return f"{type(self).__name__}()"
