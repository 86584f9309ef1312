"""Same bits on any host: the shipped kernels against the reference ones.

``history_sha256`` in the end-to-end baseline pins whole runs, but only
on the host that measured it.  This gate runs four 2-round SMOKE cells
twice in one process — as shipped, and with every ReLU, max pool, col2im,
linear layer and local SGD / StackedSGD step swapped for
``kernel_reference`` — and requires equal ``History.to_dict()`` and final
global weights, and that the swapped run really called the references.
resnet8 is the cell where layout matters: its BN/residual reductions see
the memory order ReLU hands them.
"""

import numpy as np
import pytest

from repro.experiments.runner import run_spec
from repro.experiments.scale import SMOKE
from repro.federated.server import Federation
from repro.grad.capture import CapturedStep, StackedStep, stacked_matmul_is_exact
from repro.spec import RunSpec
from tests.grad import kernel_reference

pytestmark = pytest.mark.kernels

CELLS = {
    "cnn-mnist": ("mnist", {}),
    "resnet8-cifar10": ("cifar10", {"partition": "iid", "model": "resnet8"}),
    "cnn-mnist-compiled": ("mnist", {"compile": True}),
    # 10 parties x 64 samples: every batch is full, so parties stack.
    "mlp-adult-stacked": (
        "adult", {"partition": "iid", "executor": "stacked", "n_train": 640}
    ),
}

#: the reference kernels each cell must call once they are swapped in
REFERENCES = {
    "cnn-mnist": {
        "relu", "linear", "max_pool_forward", "max_pool_backward", "col2im", "SGD",
    },
    "resnet8-cifar10": {"relu", "linear", "col2im", "SGD"},
    "cnn-mnist-compiled": {
        "relu", "linear", "max_pool_forward", "max_pool_backward", "col2im", "SGD",
    },
    "mlp-adult-stacked": {"relu", "linear", "StackedSGD"},
}

#: the program call each cell must exercise, or None
EXERCISES = {
    "cnn-mnist-compiled": (CapturedStep, "replay_step"),
    "mlp-adult-stacked": (StackedStep, "step"),
}


def run_cell(name, monkeypatch):
    """``(History.to_dict(), final global weights, program calls)``."""
    dataset, knobs = CELLS[name]
    knobs = {"partition": "dir(0.5)", **knobs}
    spec = RunSpec.build(
        dataset, knobs.pop("partition"), "fedavg",
        preset=SMOKE, num_rounds=2, seed=3, **knobs,
    )
    states, calls = [], []
    close = Federation.close

    def closing(self):
        states.append({k: np.array(v, copy=True) for k, v in self.global_state.items()})
        close(self)

    monkeypatch.setattr(Federation, "close", closing)
    if name in EXERCISES:
        cls, method = EXERCISES[name]
        program_call = getattr(cls, method)

        def counted(self, *args):
            calls.append(1)
            return program_call(self, *args)

        monkeypatch.setattr(cls, method, counted)
    history = run_spec(spec).history.to_dict()
    return history, states[-1], len(calls)


@pytest.mark.parametrize("name", sorted(CELLS))
def test_shipped_kernels_give_the_reference_bits(name, monkeypatch):
    if name == "mlp-adult-stacked" and not stacked_matmul_is_exact():
        pytest.skip("this host's batched GEMM is not slice-exact")
    with monkeypatch.context() as patch:
        shipped = run_cell(name, patch)
    with monkeypatch.context() as patch:
        calls = kernel_reference.swap_in(patch)
        reference = run_cell(name, patch)
    assert {kernel for kernel, count in calls.items() if count} >= REFERENCES[name]
    assert shipped[0] == reference[0]
    assert shipped[1].keys() == reference[1].keys()
    for key, value in shipped[1].items():
        np.testing.assert_array_equal(value, reference[1][key], err_msg=key)
    if name in EXERCISES:
        assert shipped[2] > 0 and reference[2] > 0
