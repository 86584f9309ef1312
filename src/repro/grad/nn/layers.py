"""Layers: linear, convolution, max pooling, batch/group normalization, ReLU.

Batch normalization deserves a note: the paper's Finding 7 is that naively
averaging BN layers across parties destabilizes federated training, and its
Section 6.2 sketches the FedBN-style fix of averaging only the learned
affine parameters while keeping running statistics local.  To support both,
``BatchNorm1d/2d`` keep their learned ``weight``/``bias`` as parameters and
their ``running_mean``/``running_var`` as buffers, and the federated
aggregation layer chooses what to average (see
``repro.federated.aggregation``).
"""

from __future__ import annotations

import numpy as np

from repro.grad import functional as F
from repro.grad import init
from repro.grad.nn.module import Module, Parameter
from repro.grad.tensor import Tensor, active_tape


def _default_rng(rng: np.random.Generator | None) -> np.random.Generator:
    return rng if rng is not None else np.random.default_rng()


class Linear(Module):
    """Affine layer ``y = x @ W.T + b`` with PyTorch weight layout."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        rng = _default_rng(rng)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.kaiming_uniform((out_features, in_features), rng))
        if bias:
            self.bias = Parameter(init.bias_uniform(in_features, out_features, rng))
        else:
            self.bias = None

    def forward(self, x: Tensor) -> Tensor:
        return F.linear(x, self.weight, self.bias)

    def __repr__(self) -> str:
        return (
            f"Linear(in_features={self.in_features}, "
            f"out_features={self.out_features}, bias={self.bias is not None})"
        )


class Conv2d(Module):
    """2D convolution over ``(N, C, H, W)`` inputs with square kernels."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        rng = _default_rng(rng)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        shape = (out_channels, in_channels, kernel_size, kernel_size)
        self.weight = Parameter(init.kaiming_uniform(shape, rng))
        if bias:
            fan_in = in_channels * kernel_size * kernel_size
            self.bias = Parameter(init.bias_uniform(fan_in, out_channels, rng))
        else:
            self.bias = None

    def forward(self, x: Tensor) -> Tensor:
        return F.conv2d(x, self.weight, self.bias, self.stride, self.padding)

    def __repr__(self) -> str:
        return (
            f"Conv2d({self.in_channels}, {self.out_channels}, "
            f"kernel_size={self.kernel_size}, stride={self.stride}, "
            f"padding={self.padding})"
        )


class MaxPool2d(Module):
    """Max pooling over square windows (stride defaults to the window)."""

    def __init__(self, kernel_size: int, stride: int | None = None):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride if stride is not None else kernel_size

    def forward(self, x: Tensor) -> Tensor:
        return F.max_pool2d(x, self.kernel_size, self.stride)

    def __repr__(self) -> str:
        return f"MaxPool2d(kernel_size={self.kernel_size}, stride={self.stride})"


class _BatchNorm(Module):
    """Shared batch-norm logic; subclasses fix the reduction axes."""

    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1):
        super().__init__()
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.weight = Parameter(np.ones(num_features, dtype=np.float32))
        self.bias = Parameter(np.zeros(num_features, dtype=np.float32))
        self.register_buffer("running_mean", np.zeros(num_features, dtype=np.float32))
        self.register_buffer("running_var", np.ones(num_features, dtype=np.float32))
        self.register_buffer("num_batches_tracked", np.asarray(0, dtype=np.int64))

    def _axes(self, x: Tensor) -> tuple[int, ...]:
        raise NotImplementedError

    def _shape(self, x: Tensor) -> tuple[int, ...]:
        raise NotImplementedError

    def forward(self, x: Tensor) -> Tensor:
        axes = self._axes(x)
        stat_shape = self._shape(x)
        tape = active_tape()
        if self.training:
            mean = x.mean(axis=axes, keepdims=True)
            var = x.var(axis=axes, keepdims=True)
            count = int(np.prod([x.shape[a] for a in axes]))
            # Running stats use the unbiased variance, matching PyTorch.
            unbiased = var.data * (count / max(count - 1, 1))
            m = self.momentum
            self._set_buffer(
                "running_mean",
                (1 - m) * self.running_mean + m * mean.data.reshape(-1),
            )
            self._set_buffer(
                "running_var",
                (1 - m) * self.running_var + m * unbiased.reshape(-1),
            )
            self._set_buffer(
                "num_batches_tracked", np.asarray(int(self.num_batches_tracked) + 1)
            )
            if tape is not None:
                # Replays must reproduce the running-stat update too.
                tape.record_bn_update(self, mean, var, count)
        else:
            mean = Tensor(self.running_mean.reshape(stat_shape))
            var = Tensor(self.running_var.reshape(stat_shape))
            if tape is not None:
                # The buffers are rebound after aggregation/state loads, so
                # replays must re-read them from the module each time.
                tape.register_buffer_leaf(mean, self, "running_mean", stat_shape)
                tape.register_buffer_leaf(var, self, "running_var", stat_shape)
        normalized = (x - mean) / ((var + self.eps) ** 0.5)
        weight = self.weight.reshape(*stat_shape)
        bias = self.bias.reshape(*stat_shape)
        return normalized * weight + bias

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.num_features}, eps={self.eps})"


class BatchNorm1d(_BatchNorm):
    """Batch norm over ``(N, C)`` inputs."""

    def _axes(self, x: Tensor) -> tuple[int, ...]:
        if x.ndim != 2:
            raise ValueError(f"BatchNorm1d expects (N, C) input, got {x.shape}")
        return (0,)

    def _shape(self, x: Tensor) -> tuple[int, ...]:
        return (1, self.num_features)


class BatchNorm2d(_BatchNorm):
    """Batch norm over ``(N, C, H, W)`` inputs, per channel."""

    def _axes(self, x: Tensor) -> tuple[int, ...]:
        if x.ndim != 4:
            raise ValueError(f"BatchNorm2d expects (N, C, H, W) input, got {x.shape}")
        return (0, 2, 3)

    def _shape(self, x: Tensor) -> tuple[int, ...]:
        return (1, self.num_features, 1, 1)


class GroupNorm(Module):
    """Group normalization over ``(N, C, H, W)`` inputs.

    Normalizes within groups of channels *per sample*, so it carries no
    dataset statistics at all — the standard remedy for the federated
    batch-norm pathology the paper's Finding 7 describes (no running
    buffers means nothing distribution-dependent gets averaged).
    """

    def __init__(self, num_groups: int, num_channels: int, eps: float = 1e-5):
        super().__init__()
        if num_channels % num_groups != 0:
            raise ValueError(
                f"num_channels {num_channels} not divisible by "
                f"num_groups {num_groups}"
            )
        self.num_groups = num_groups
        self.num_channels = num_channels
        self.eps = eps
        self.weight = Parameter(np.ones(num_channels, dtype=np.float32))
        self.bias = Parameter(np.zeros(num_channels, dtype=np.float32))

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 4:
            raise ValueError(f"GroupNorm expects (N, C, H, W) input, got {x.shape}")
        n, c, h, w = x.shape
        if c != self.num_channels:
            raise ValueError(f"expected {self.num_channels} channels, got {c}")
        grouped = x.reshape(n, self.num_groups, c // self.num_groups * h * w)
        mean = grouped.mean(axis=2, keepdims=True)
        var = grouped.var(axis=2, keepdims=True)
        normalized = (grouped - mean) / ((var + self.eps) ** 0.5)
        out = normalized.reshape(n, c, h, w)
        weight = self.weight.reshape(1, c, 1, 1)
        bias = self.bias.reshape(1, c, 1, 1)
        return out * weight + bias

    def __repr__(self) -> str:
        return f"GroupNorm({self.num_groups}, {self.num_channels}, eps={self.eps})"


class ReLU(Module):
    """Rectified linear activation."""

    def forward(self, x: Tensor) -> Tensor:
        return x.relu()

    def __repr__(self) -> str:
        return "ReLU()"


class Flatten(Module):
    """Flatten all dimensions after the batch dimension."""

    def forward(self, x: Tensor) -> Tensor:
        return x.reshape(x.shape[0], -1)

    def __repr__(self) -> str:
        return "Flatten()"


class Identity(Module):
    """Pass-through module (used as a no-op shortcut)."""

    def forward(self, x: Tensor) -> Tensor:
        return x


class Sequential(Module):
    """Chain of modules applied in order; supports indexing and iteration."""

    def __init__(self, *modules: Module):
        super().__init__()
        for index, module in enumerate(modules):
            setattr(self, str(index), module)

    def forward(self, x: Tensor) -> Tensor:
        # ``forward`` directly: ``Module.__call__`` adds nothing but a
        # frame, and a tabular step runs seven of these.
        for module in self._modules.values():
            x = module.forward(x)
        return x

    def __getitem__(self, index: int) -> Module:
        return list(self._modules.values())[index]

    def __iter__(self):
        return iter(self._modules.values())

    def __len__(self) -> int:
        return len(self._modules)
