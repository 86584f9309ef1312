"""The kernels as first written: the oracle for the fast ones.

Each function takes the arguments of the kernel it stands in for and
computes it the textbook way, verbatim from the first implementation:
``np.where`` ReLU with a bool-mask backward, im2col + ``argmax`` + a
fancy gather for the max pool, zeros + a nested-loop col2im for its
backward, and the linear layer as a ``transpose``/``matmul``/``add``
composition.  :func:`swap_in` installs them everywhere the fast kernels
are called, eager and compiled alike, so a whole run can be repeated on
them.
"""

import math

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.grad import capture
from repro.grad import functional as F
from repro.grad import tensor as tensor_mod
from repro.grad.tensor import Tensor


def _out_size(size, kernel, stride, padding):
    return (size + 2 * padding - kernel) // stride + 1


def relu_forward(x, out=None):
    value = np.where(x > 0, x, 0.0)
    if out is None:
        return value
    np.copyto(out, value)
    return out


def tensor_relu(self):
    mask = self.data > 0
    out = Tensor(np.where(mask, self.data, 0.0))

    def backward(grad):
        if self.requires_grad:
            self._accumulate(grad * mask, fresh=True)

    return out._attach((self,), backward, "relu")


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


def linear(x, weight, bias=None):
    out = x.matmul(weight.T)
    if bias is not None:
        out = out + bias
    return out


def swap_in(monkeypatch) -> None:
    """Run every ReLU, max pool, col2im and linear layer on the reference
    kernels."""
    monkeypatch.setattr(F, "linear", linear)
    monkeypatch.setattr(Tensor, "relu", tensor_relu)
    monkeypatch.setattr(tensor_mod, "relu_forward", relu_forward)
    monkeypatch.setattr(capture, "relu_forward", relu_forward)
    monkeypatch.setattr(F, "col2im", col2im)
    monkeypatch.setattr(F, "max_pool_forward", max_pool_forward)
    monkeypatch.setattr(F, "max_pool_backward", max_pool_backward)
