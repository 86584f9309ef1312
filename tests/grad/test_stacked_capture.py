"""Stacked-client replay programs must mirror per-client eager training.

A :class:`~repro.grad.capture.StackedStep` executes K clients' training
steps as single fat ops over ``(K, ...)`` buffers; these tests pin each
slice to the eager reference — losses, gradients and multi-step SGD
trajectories — and exercise the rejection seams (batch norm) and the
:class:`~repro.grad.optim.StackedSGD` mirror of ``SGD.step``.
"""

import numpy as np
import pytest

from repro.grad import functional as F
from repro.grad import nn
from repro.grad.capture import (
    CaptureError,
    StackedEngine,
    compile_stacked_step,
    stacked_engine,
    stacked_matmul_is_exact,
)
from repro.grad.nn.module import Parameter
from repro.grad.optim import SGD, StackedSGD
from repro.grad.serialize import column_views
from repro.grad.tensor import Tensor
from repro.models.cnn import PaperCNN
from repro.models.mlp import TabularMLP

pytestmark = pytest.mark.stacked


def make_model(kind, seed=7):
    if kind == "mlp":
        return TabularMLP(12, 4, rng=np.random.default_rng(seed)), (12,)
    return PaperCNN(num_classes=4, rng=np.random.default_rng(seed)), (1, 16, 16)


def make_batches(shape, stack, steps, batch=8, seed=0, classes=4):
    rng = np.random.default_rng(seed)
    return [
        [
            (
                rng.standard_normal((batch,) + shape).astype(np.float32),
                rng.integers(0, classes, size=batch).astype(np.int64),
            )
            for _ in range(stack)
        ]
        for _ in range(steps)
    ]


def eager_trajectory(kind, batches, lr=0.05, momentum=0.9):
    """Per-client eager reference: losses, per-step grads, final params."""
    stack = len(batches[0])
    out = []
    for k in range(stack):
        model, _ = make_model(kind)
        model.train()
        optimizer = SGD(model.parameters(), lr=lr, momentum=momentum)
        losses, grads = [], []
        for step_batches in batches:
            features, labels = step_batches[k]
            optimizer.zero_grad()
            loss = F.cross_entropy(model(Tensor(features)), labels)
            loss.backward()
            losses.append(float(loss.data))
            grads.append([p.grad.copy() for p in model.parameters()])
            optimizer.step()
        out.append((losses, grads, [p.data.copy() for p in model.parameters()]))
    return out


@pytest.mark.parametrize("kind", ["mlp", "cnn"])
def test_stacked_program_matches_eager_per_slice(kind):
    stack, steps, batch = 3, 3, 8
    model, shape = make_model(kind)
    batches = make_batches(shape, stack, steps, batch=batch)
    reference = eager_trajectory(kind, batches)

    program = stacked_engine(model).program(
        stack,
        np.zeros((batch,) + shape, np.float32),
        np.zeros((batch,), np.int64),
    )
    assert program is not None
    state0 = model.state_dict()
    keys = [key for key, _ in model.named_parameters()]
    stacks = [program.param_stack(i) for i in range(len(keys))]
    for buffer, key in zip(stacks, keys):
        assert buffer is not None
        buffer[:] = state0[key]
    optimizer = StackedSGD(stacks, lr=0.05, momentum=0.9)

    for step, step_batches in enumerate(batches):
        for k in range(stack):
            program.features[k] = step_batches[k][0]
            program.labels[k] = step_batches[k][1]
        losses = program.step()
        grads = program.grads()
        for k in range(stack):
            ref_losses, ref_grads, _ = reference[k]
            assert losses[k] == np.float32(ref_losses[step])
            for index, grad in enumerate(grads):
                np.testing.assert_array_equal(
                    grad[k], ref_grads[step][index],
                    err_msg=f"client {k} step {step} param {index}",
                )
        optimizer.step(grads)

    for k in range(stack):
        _, _, ref_params = reference[k]
        for index, buffer in enumerate(stacks):
            np.testing.assert_array_equal(
                buffer[k], ref_params[index],
                err_msg=f"client {k} final param {index}",
            )


def test_slices_are_independent():
    """One client's data must never leak into another's slice."""
    stack, batch = 3, 8
    model, shape = make_model("mlp")
    program = stacked_engine(model).program(
        stack,
        np.zeros((batch,) + shape, np.float32),
        np.zeros((batch,), np.int64),
    )
    state0 = model.state_dict()
    keys = [key for key, _ in model.named_parameters()]
    stacks = [program.param_stack(i) for i in range(len(keys))]
    for buffer, key in zip(stacks, keys):
        buffer[:] = state0[key]
    rng = np.random.default_rng(0)
    features = rng.standard_normal((batch,) + shape).astype(np.float32)
    labels = rng.integers(0, 4, size=batch).astype(np.int64)
    for k in range(stack):
        program.features[k] = features
        program.labels[k] = labels
    # Perturb client 1's batch only; clients 0 and 2 must be untouched.
    program.features[1] = features * np.float32(2.0)
    losses = program.step()
    assert losses[0] == losses[2]
    assert losses[1] != losses[0]
    grads = program.grads()
    for grad in grads:
        np.testing.assert_array_equal(grad[0], grad[2])
        assert not np.array_equal(grad[1], grad[0])


def test_batch_norm_is_rejected_and_memoized():
    rng = np.random.default_rng(1)
    model = nn.Sequential(
        nn.Linear(6, 8, rng=rng), nn.BatchNorm1d(8), nn.ReLU(),
        nn.Linear(8, 3, rng=rng),
    )
    with pytest.raises(CaptureError, match="batch-norm"):
        compile_stacked_step(
            model, 2, np.zeros((4, 6), np.float32), np.zeros((4,), np.int64)
        )
    engine = StackedEngine(model)
    with pytest.raises(CaptureError):
        engine.program(2, np.zeros((4, 6), np.float32), np.zeros((4,), np.int64))
    assert engine.failures  # memoized: later rounds skip the compile attempt
    with pytest.raises(CaptureError):
        engine.program(2, np.zeros((4, 6), np.float32), np.zeros((4,), np.int64))


def test_engine_caches_per_shape():
    model, shape = make_model("mlp")
    engine = stacked_engine(model)
    assert stacked_engine(model) is engine
    a = engine.program(
        2, np.zeros((8,) + shape, np.float32), np.zeros((8,), np.int64)
    )
    b = engine.program(
        2, np.zeros((8,) + shape, np.float32), np.zeros((8,), np.int64)
    )
    c = engine.program(
        3, np.zeros((8,) + shape, np.float32), np.zeros((8,), np.int64)
    )
    assert a is b
    assert c is not a


def test_compile_restores_model_state():
    model, shape = make_model("mlp")
    before = model.state_dict()
    compile_stacked_step(
        model, 2, np.zeros((8,) + shape, np.float32), np.zeros((8,), np.int64)
    )
    after = model.state_dict()
    assert sorted(before) == sorted(after)
    for key in before:
        np.testing.assert_array_equal(before[key], after[key], err_msg=key)


def test_probe_is_boolean_and_stable():
    first = stacked_matmul_is_exact()
    assert isinstance(first, bool)
    assert stacked_matmul_is_exact() is first


def test_param_stacks_share_one_block():
    stack, batch = 3, 8
    model, shape = make_model("mlp")
    program = stacked_engine(model).program(
        stack, np.zeros((batch,) + shape, np.float32), np.zeros((batch,), np.int64)
    )
    stacks = [program.param_stack(i) for i in range(len(model.parameters()))]
    block = stacks[0].base
    assert block.shape == (stack, model.num_parameters())
    assert block.flags.c_contiguous
    offset = 0
    for stack_view, param in zip(stacks, model.parameters()):
        assert stack_view.base is block and np.shares_memory(stack_view, block)
        assert stack_view.shape == (stack,) + param.data.shape
        np.testing.assert_array_equal(
            stack_view.reshape(stack, -1), block[:, offset : offset + param.data.size]
        )
        offset += param.data.size
    StackedSGD(stacks, lr=0.1)  # accepts the program's own layout


def test_stacked_sgd_rejects_stacks_outside_one_block():
    stacks = block_stacks([np.ones((2, 3), np.float32), np.ones((2, 4), np.float32)])
    with pytest.raises(ValueError, match="column views"):
        StackedSGD([np.ones((2, 3), np.float32)], lr=0.1)
    with pytest.raises(ValueError, match="column views"):
        StackedSGD(stacks[::-1], lr=0.1)  # out of order


def block_stacks(values):
    """``values`` ((K,) + shape arrays or None) copied into column views of
    one (K, P) block — the layout StackedSGD updates in one pass."""
    present = [value for value in values if value is not None]
    block = np.empty(
        (len(present[0]), sum(value[0].size for value in present)), np.float32
    )
    shapes = [None if value is None else value.shape[1:] for value in values]
    stacks = column_views(block, shapes)
    for stack, value in zip(stacks, values):
        if stack is not None:
            stack[:] = value
    return stacks


class TestStackedSGDMirrorsSGD:
    """StackedSGD over (K,)+shape stacks == K independent SGD runs."""

    def _run_pair(self, steps=4, stack=3, **kwargs):
        rng = np.random.default_rng(0)
        shapes = [(5, 7), (7,), (7, 3)]
        params0 = [
            [rng.standard_normal(s).astype(np.float32) for s in shapes]
            for _ in range(stack)
        ]
        grads = [
            [
                [rng.standard_normal(s).astype(np.float32) for s in shapes]
                for _ in range(stack)
            ]
            for _ in range(steps)
        ]
        anchors = [
            [rng.standard_normal(s).astype(np.float32) for s in shapes]
            for _ in range(stack)
        ]
        corrections = [
            [rng.standard_normal(s).astype(np.float32) for s in shapes]
            for _ in range(stack)
        ]
        mode = kwargs.pop("correction_mode", "step")
        use_anchor = kwargs.pop("use_anchor", False)
        use_correction = kwargs.pop("use_correction", False)

        # Serial reference: one SGD per client.
        serial_out = []
        for k in range(stack):
            params = [Parameter(value.copy()) for value in params0[k]]
            optimizer = SGD([p for p in params], lr=0.1, **kwargs)
            if use_anchor:
                optimizer.set_anchor(anchors[k])
            if use_correction:
                optimizer.set_correction(corrections[k], mode=mode)
            for step in range(steps):
                for param, grad in zip(params, grads[step][k]):
                    param.grad = grad.copy()
                optimizer.step()
            serial_out.append([p.data.copy() for p in params])

        # Stacked: one StackedSGD over (K,)+shape buffers.
        stacks = block_stacks(
            [np.stack([params0[k][i] for k in range(stack)])
             for i in range(len(shapes))]
        )
        optimizer = StackedSGD(stacks, lr=0.1, **kwargs)
        if use_anchor:
            optimizer.set_anchor(
                [np.stack([anchors[k][i] for k in range(stack)])
                 for i in range(len(shapes))]
            )
        if use_correction:
            optimizer.set_correction(
                [np.stack([corrections[k][i] for k in range(stack)])
                 for i in range(len(shapes))],
                mode=mode,
            )
        for step in range(steps):
            optimizer.step(
                [np.stack([grads[step][k][i] for k in range(stack)])
                 for i in range(len(shapes))]
            )
        for k in range(stack):
            for i in range(len(shapes)):
                np.testing.assert_array_equal(
                    stacks[i][k], serial_out[k][i],
                    err_msg=f"client {k} param {i}",
                )

    def test_plain(self):
        self._run_pair()

    def test_momentum_weight_decay(self):
        self._run_pair(momentum=0.9)

    def test_proximal(self):
        self._run_pair(momentum=0.9, proximal_mu=0.1, use_anchor=True)

    def test_correction_step_mode(self):
        self._run_pair(momentum=0.9, use_correction=True, correction_mode="step")

    def test_correction_grad_mode(self):
        self._run_pair(momentum=0.9, use_correction=True, correction_mode="grad")

    def test_none_entries_skipped(self):
        stacks = block_stacks([np.ones((2, 3), np.float32), None])
        optimizer = StackedSGD(stacks, lr=0.5)
        optimizer.step([np.ones((2, 3), np.float32), None])
        np.testing.assert_array_equal(stacks[0], np.full((2, 3), 0.5, np.float32))

    def test_validation(self):
        with pytest.raises(ValueError, match="empty"):
            StackedSGD([], lr=0.1)
        with pytest.raises(ValueError, match="learning rate"):
            StackedSGD([np.ones((2, 2), np.float32)], lr=0.0)
        with pytest.raises(ValueError, match="momentum"):
            StackedSGD([np.ones((2, 2), np.float32)], lr=0.1, momentum=1.0)
