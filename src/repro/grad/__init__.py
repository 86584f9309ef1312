"""A from-scratch reverse-mode automatic differentiation engine on NumPy.

This package is the substrate that replaces PyTorch in this reproduction
(see DESIGN.md, substitution 1).  It provides:

- :class:`~repro.grad.tensor.Tensor`: an n-dimensional array that records
  the operations applied to it and can backpropagate gradients.
- :mod:`repro.grad.nn`: neural-network building blocks (``Module``,
  ``Linear``, ``Conv2d``, ``BatchNorm2d``, losses, ...).
- :mod:`repro.grad.optim`: SGD with momentum, weight decay, a proximal
  term (FedProx) and additive gradient corrections (SCAFFOLD).
- :mod:`repro.grad.init`: weight initialization schemes.

The engine supports full NumPy-style broadcasting for elementwise ops and
implements convolution with im2col so CPU training of the paper's
CNNs is practical at reduced scale.
"""

from repro.grad.tensor import Tensor, no_grad, is_grad_enabled
from repro.grad import functional
from repro.grad import init
from repro.grad import nn
from repro.grad import optim
from repro.grad.serialize import (
    parameters_to_vector,
    vector_to_parameters,
    state_dict_to_vector,
    vector_to_state_dict,
)

__all__ = [
    "Tensor",
    "no_grad",
    "is_grad_enabled",
    "functional",
    "init",
    "nn",
    "optim",
    "parameters_to_vector",
    "vector_to_parameters",
    "state_dict_to_vector",
    "vector_to_state_dict",
]
