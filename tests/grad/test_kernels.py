"""The fast array kernels against the formulations they replaced.

``kernel_reference.py`` keeps the first versions of ReLU, the max pool,
col2im and the linear layer; hypothesis draws inputs full of what breaks
kernels — NaN of both signs, ±inf, ±0.0, ties (ReLU'd inputs tie at
zero), overlapping and non-divisible windows, padding, NHWC-strided
views, 1-D to 3-D linear inputs and a leading stack axis — and each
result must match the reference in bits (compared
as unsigned integers), shape, dtype and memory layout.

The second half is the non-finite contract end to end: a model whose
ReLU inputs hold NaN, ±inf or -0.0 evaluates and trains to the same bits
eagerly, compiled, and as a slice of a stacked program.

The last test holds the BLAS side of the bits: OpenBLAS GEMM gives the
same bits at 1 and 2 threads at the paper models' shapes, which is what
lets ``--jobs`` workers shrink their thread pools without moving results.
"""

import math
import os

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from repro.data import ArrayDataset
from repro.data.dataset import DatasetInfo
from repro.experiments.scheduler import _openblas_threads
from repro.federated.evaluation import EVAL_BATCH_SIZE, evaluate
from repro.grad import functional as F, ops
from repro.grad.capture import (
    compile_stacked_step,
    stacked_matmul_is_exact,
    training_engine,
)
from repro.grad.nn.module import Parameter
from repro.grad.ops import relu_forward
from repro.grad.optim import SGD, StackedSGD
from repro.grad.serialize import column_views
from repro.grad.tensor import Tensor
from repro.models import build_model
from repro.models.cnn import PaperCNN
from repro.models.mlp import TabularMLP
from tests.grad import kernel_reference as ref

#: NaN and inf inputs are the point here, not a warning.
pytestmark = [pytest.mark.kernels, pytest.mark.filterwarnings("ignore::RuntimeWarning")]

MAX_EXAMPLES = 60
SPECIAL = (np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, -1.0)
UINT = {np.dtype(np.float32): np.uint32, np.dtype(np.float64): np.uint64}


def assert_same(got, want, nan_payload=True):
    """Equal bits, shape, dtype and stride order.

    ``nan_payload=False`` compares every NaN as one NaN: when two NaNs
    meet in an add, which one survives is up to the NumPy loop that runs
    it (a compiler may swap the operands of a commutative SIMD add), so
    sums only promise the bits of every non-NaN result.
    """
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert stride_order(got) == stride_order(want), (got.strides, want.strides)
    if not nan_payload:
        got = np.where(np.isnan(got), np.nan, got)
        want = np.where(np.isnan(want), np.nan, want)
    uint = UINT[got.dtype]
    np.testing.assert_array_equal(got.view(uint), want.view(uint))


def stride_order(array):
    """The axes from innermost to outermost, ignoring length-1 axes."""
    order = np.argsort(array.strides, kind="stable")
    return [int(axis) for axis in order if array.shape[axis] > 1]


def draw_values(rng, shape, dtype, special_share):
    """Normals with a ``special_share`` of :data:`SPECIAL` sprinkled in."""
    values = rng.standard_normal(shape).astype(dtype)
    special = np.array(SPECIAL, dtype=dtype)[rng.integers(0, len(SPECIAL), shape)]
    return np.where(rng.random(shape) < special_share, special, values)


@st.composite
def images(draw, min_side=1):
    """``lead + (n, c, h, w)`` arrays, C-contiguous or an NHWC view."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    lead = draw(st.sampled_from([(), (2,)]))
    n = draw(st.integers(1, 3))
    c = draw(st.sampled_from([1, 3, 6]))
    h, w = draw(st.integers(min_side, 9)), draw(st.integers(min_side, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    x = draw_values(rng, lead + (n, h, w, c), dtype, draw(st.sampled_from([0.0, 0.3])))
    x = np.moveaxis(x, -1, -3)  # NCHW view of NHWC memory
    if draw(st.booleans()):
        x = np.ascontiguousarray(x)
    if draw(st.booleans()):
        x = ref.relu_forward(x)  # ties at zero, in the input's layout
    return x, rng


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(drawn=images())
def test_relu_matches_where(drawn):
    x, rng = drawn
    assert_same(relu_forward(x), ref.relu_forward(x))
    assert_same(relu_forward(x, out=np.empty_like(x)), ref.relu_forward(x))
    grad = draw_values(rng, x.shape, x.dtype, 0.3)
    results = []
    for relu in (Tensor.relu, ref.tensor_relu):
        t = Tensor(x, requires_grad=True)
        out = relu(t)
        out.backward(grad)  # runs the output's one backward record
        results.append((out.data, t.grad))
    (got_out, got_grad), (want_out, want_grad) = results
    assert_same(got_out, want_out)
    assert_same(got_grad, want_grad)


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(
    drawn=images(min_side=3),
    kernel=st.integers(1, 3),
    stride=st.integers(1, 3),
)
def test_max_pool_matches_im2col_argmax(drawn, kernel, stride):
    x, rng = drawn
    out, arg = ops.max_pool_forward(x, kernel, stride)
    want_out, want_arg = ref.max_pool_forward(x, kernel, stride)
    assert_same(out, want_out)
    np.testing.assert_array_equal(arg, want_arg)
    grad = draw_values(rng, out.shape, out.dtype, 0.3)
    assert_same(
        ops.max_pool_backward(grad, arg, x.shape, kernel, stride),
        ref.max_pool_backward(grad, want_arg, x.shape, kernel, stride),
        nan_payload=stride >= kernel,
    )


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(
    drawn=images(min_side=1),
    kernel=st.integers(1, 5),
    stride=st.sampled_from([1, 2]),
    padding=st.sampled_from([0, 1, 2]),
)
def test_col2im_matches_nested_loop(drawn, kernel, stride, padding):
    x, rng = drawn
    *lead, n, c, h, w = x.shape
    assume(min(h, w) + 2 * padding >= kernel)
    out_h = (h + 2 * padding - kernel) // stride + 1
    out_w = (w + 2 * padding - kernel) // stride + 1
    columns = draw_values(
        rng, (*lead, n * out_h * out_w, c * kernel * kernel), x.dtype, 0.3
    )
    want = ref.col2im(columns, x.shape, kernel, stride, padding)
    got = ops.col2im(columns, x.shape, kernel, stride, padding)
    assert_same(got, want, nan_payload=False)
    scratch: dict = {}
    for _ in range(2):  # the second call reuses the kept buffers
        got = ops.col2im(columns, x.shape, kernel, stride, padding, scratch)
        assert_same(got, want, nan_payload=False)


@st.composite
def linear_inputs(draw):
    """``(x, weight, bias or None, output grad)`` for 1-D to 3-D inputs."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    lead = draw(st.sampled_from([(), (5,), (2, 3)]))
    fan_in, fan_out = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    share = draw(st.sampled_from([0.0, 0.3]))
    x = draw_values(rng, lead + (fan_in,), dtype, share)
    weight = draw_values(rng, (fan_out, fan_in), dtype, share)
    bias = draw_values(rng, (fan_out,), dtype, share) if draw(st.booleans()) else None
    return x, weight, bias, draw_values(rng, lead + (fan_out,), dtype, share)


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(drawn=linear_inputs())
# NaNs from ``x @ w.T`` and the bias meet in the output's add: the shipped
# kernel adds the bias in place, the reference into a fresh array, and
# NumPy keeps another operand's NaN (-nan shipped, +nan reference).
@example(
    drawn=(
        np.array([0.23, -0.44, 1.0, 1.0, 1.0, 1.34, np.nan]),
        np.array([[-1.46, -0.0, -0.14, 0.62, -0.0, -np.nan, -0.10]]),
        np.array([-np.nan]),
        np.array([-0.74]),
    )
)
def test_linear_matches_matmul_add(drawn):
    x, weight, bias, grad = drawn
    arrays = (x, weight) if bias is None else (x, weight, bias)
    results = []
    for linear in (F.linear, ref.linear):
        leaves = [Tensor(a, requires_grad=True) for a in arrays]
        out = linear(*leaves)
        out.backward(grad)
        results.append([out.data] + [t.grad for t in leaves])
    (out, *grads), (want_out, *want_grads) = results
    # The output is a sum, which promises only its non-NaN bits.
    assert_same(out, want_out, nan_payload=False)
    for got, want in zip(grads, want_grads):
        assert_same(got, want)


@pytest.mark.parametrize("model_name", ["resnet8", "mlp"])
def test_backward_sums_gradients_in_toposort_order(model_name):
    """Three SGD steps, each backward once as shipped and once by the
    reference walk in the first ``_toposort``'s order: equal parameter
    gradients in bits.  resnet8's batch-norm and residual tensors feed
    three or four ops each, so a walk in any other order (reversed
    creation order, say) sums their gradients differently within these
    steps; the MLP is a chain, the case every order agrees on."""
    info = DatasetInfo("order", "image", 10, (3, 8, 8), 8, 8)
    if model_name == "mlp":
        info = DatasetInfo("order", "tabular", 2, (6,), 8, 8)
    rng = np.random.default_rng(11)
    batches = [
        (
            rng.standard_normal((4, *info.input_shape)).astype(np.float32),
            rng.integers(0, info.num_classes, 4),
        )
        for _ in range(3)
    ]
    grads = {}
    for walk in ("shipped", "reference"):
        model = build_model(model_name, info, seed=2)
        model.train()
        optimizer = SGD(model.parameters(), lr=0.1, momentum=0.9)
        grads[walk] = []
        for features, labels in batches:
            optimizer.zero_grad()
            loss = F.cross_entropy(model(Tensor(features)), labels)
            if walk == "shipped":
                loss.backward()
            else:
                ref.backward(loss)
            grads[walk].append([p.grad.copy(order="K") for p in model.parameters()])
            optimizer.step()
    for got_step, want_step in zip(grads["shipped"], grads["reference"]):
        for got, want in zip(got_step, want_step):
            assert_same(got, want)


# ----------------------------------------------------------------------
# One flat block per optimizer == the per-tensor loops it replaced
# ----------------------------------------------------------------------
OPTIM_SHAPES = [(3, 4), (4,), (2, 3, 2)]


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    stack=st.sampled_from([None, 1, 3]),
    momentum=st.sampled_from([0.0, 0.9]),
    proximal=st.booleans(),
    correction=st.sampled_from([None, "step", "grad"]),
)
def test_sgd_matches_per_tensor_loop(seed, stack, momentum, proximal, correction):
    """``SGD`` (``stack=None``) and ``StackedSGD`` over K = 1, 3 clients
    step the reference's bits, velocity included, through NaN, ±inf and
    -0.0 values, F-ordered gradients, the proximal anchor, both correction
    modes and parameters that miss a gradient on some steps."""
    rng = np.random.default_rng(seed)
    lead = () if stack is None else (stack,)

    def values():
        return [
            draw_values(rng, lead + shape, np.float32, 0.2)
            for shape in OPTIM_SHAPES
        ]

    start = values()
    kwargs = dict(lr=0.1, momentum=momentum, proximal_mu=0.01 if proximal else 0.0)
    if stack is None:
        params = [Parameter(value.copy()) for value in start]
        ref_params = [Parameter(value.copy()) for value in start]
        optimizer, reference = SGD(params, **kwargs), ref.SGD(ref_params, **kwargs)
    else:
        block = np.empty((stack, sum(math.prod(s) for s in OPTIM_SHAPES)), np.float32)
        stacks = column_views(block, OPTIM_SHAPES)
        for view, value in zip(stacks, start):
            view[...] = value
        ref_stacks = [value.copy() for value in start]
        optimizer = StackedSGD(stacks, **kwargs)
        reference = ref.StackedSGD(ref_stacks, **kwargs)
    if proximal:
        anchor = values()
        optimizer.set_anchor(anchor)
        reference.set_anchor(anchor)
    if correction is not None:
        terms = values()
        optimizer.set_correction(terms, mode=correction)
        reference.set_correction(terms, mode=correction)
    for _ in range(4):
        grads = []
        for grad in values():
            if rng.random() < 0.25:
                grad = None  # no gradient this step
            elif grad.ndim >= 2 and rng.random() < 0.5:
                # The transposed view autograd hands a linear weight.
                grad = np.ascontiguousarray(np.swapaxes(grad, -1, -2))
                grad = np.swapaxes(grad, -1, -2)
            grads.append(grad)
        if stack is None:
            for param, ref_param, grad in zip(params, ref_params, grads):
                param.grad = ref_param.grad = grad
            optimizer.step()
            reference.step()
            mine, theirs = [p.data for p in params], [p.data for p in ref_params]
        else:
            optimizer.step(grads)
            reference.step(grads)
            mine, theirs = stacks, ref_stacks
        # Every NaN as one NaN: which of two NaNs an add keeps depends on
        # the NumPy loop, and even the reference's loops disagree by size.
        for got, want in zip(mine, theirs):
            assert_same(got, want, nan_payload=False)
        if momentum:
            velocities = column_views(optimizer._velocity, OPTIM_SHAPES)
            for got, want in zip(velocities, reference._velocity):
                if want is None:  # no gradient yet: still the -0.0 start
                    want = np.full(got.shape, -0.0, np.float32)
                # Values only: the reference keeps an F-ordered grad's layout.
                assert_same(
                    np.array(got, order="C"),
                    np.array(want, order="C"),
                    nan_payload=False,
                )


# ----------------------------------------------------------------------
# Non-finite ReLU inputs: eager == compiled == stacked slice
# ----------------------------------------------------------------------
EXACT = stacked_matmul_is_exact()
POISON = {"nan": np.nan, "+inf": np.inf, "-inf": -np.inf, "-0.0": -0.0}


def poisoned_model(kind, value):
    """The adult MLP or the mnist CNN with ``value`` in its first bias."""
    rng = np.random.default_rng(3)
    if kind == "mlp":
        model, shape = TabularMLP(12, 4, rng=rng), (12,)
    else:
        model, shape = PaperCNN(num_classes=4, rng=rng), (1, 16, 16)
    first_bias = model.parameters()[1]
    first_bias.data = first_bias.data.copy()
    first_bias.data[0] = value
    return model, shape


def batch(shape, rows=32, seed=0):
    rng = np.random.default_rng(seed)
    features = rng.standard_normal((rows,) + shape).astype(np.float32)
    return features, rng.integers(0, 4, size=rows).astype(np.int64)


def assert_bits(got, want, exact=True):
    """Equal bits, or close where stacked GEMMs are not slice-exact.

    Values only: both sides are compared as C-ordered copies.
    """
    got, want = np.array(got, order="C"), np.array(want, order="C")
    if exact:
        assert_same(got, want)
    else:
        np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-6, equal_nan=True)


def eager_step(model, features, labels):
    for p in model.parameters():
        p.grad = None
    loss = F.cross_entropy(model(Tensor(features)), labels)
    loss.backward()
    return loss.data, [p.grad.copy() for p in model.parameters()]


@pytest.mark.parametrize("poison", sorted(POISON))
@pytest.mark.parametrize("kind", ["mlp", "cnn"])
def test_evaluate_compiled_equals_eager(kind, poison):
    model, shape = poisoned_model(kind, POISON[poison])
    dataset = ArrayDataset(*batch(shape, rows=64))
    eager = evaluate(model, dataset, batch_size=32)
    evaluate(model, dataset, batch_size=32, compiled=True)  # captures
    compiled = evaluate(model, dataset, batch_size=32, compiled=True)
    assert_bits([compiled.accuracy, compiled.loss], [eager.accuracy, eager.loss])


@pytest.mark.parametrize("poison", sorted(POISON))
@pytest.mark.parametrize("kind", ["mlp", "cnn"])
def test_training_step_compiled_and_stacked_equal_eager(kind, poison):
    model, shape = poisoned_model(kind, POISON[poison])
    model.train()
    steps = [batch(shape, seed=seed) for seed in (1, 2)]
    reference = [eager_step(model, *step) for step in steps]

    engine = training_engine(model)
    engine.step(*steps[0])  # captures
    for (features, labels), (want_loss, want_grads) in zip(steps, reference):
        for p in model.parameters():
            p.grad = None
        loss = engine.step(features, labels)
        assert_bits(np.float32(loss), want_loss)
        for p, want in zip(model.parameters(), want_grads):
            assert_bits(p.grad, want)
    assert engine.replays == 2

    program = compile_stacked_step(model, len(steps), *steps[0])
    for index, p in enumerate(model.parameters()):
        program.param_stack(index)[:] = p.data
    for k, (features, labels) in enumerate(steps):
        program.features[k] = features
        program.labels[k] = labels
    losses = program.step()
    grads = program.grads()
    for k, (want_loss, want_grads) in enumerate(reference):
        assert_bits(losses[k], want_loss, EXACT)
        for grad, want in zip(grads, want_grads):
            assert_bits(grad[k], want, EXACT)


# ----------------------------------------------------------------------
# GEMM bits do not depend on the BLAS thread count
# ----------------------------------------------------------------------
#: ``(rows per example, in, out)`` of every GEMM in the paper CNN on 16x16
#: images (conv layers as im2col: one row per output pixel, ``in`` =
#: channels x 5 x 5) and in the paper MLP on adult / covtype.
GEMM_SHAPES = [
    (16 * 16, 1 * 25, 6), (16 * 16, 3 * 25, 6), (8 * 8, 6 * 25, 16),
    (1, 256, 120), (1, 120, 84), (1, 84, 10),
    (1, 123, 32), (1, 54, 32), (1, 32, 16), (1, 16, 8), (1, 8, 2),
]


def gemm_products(batch_size):
    """Forward and both backward products of each layer, as the ops run them."""
    rng = np.random.default_rng(0)
    out = []
    for rows, fan_in, fan_out in GEMM_SHAPES:
        x = rng.standard_normal((batch_size * rows, fan_in), dtype=np.float32)
        w = rng.standard_normal((fan_out, fan_in), dtype=np.float32)
        g = rng.standard_normal((batch_size * rows, fan_out), dtype=np.float32)
        # conv2d's weight gradient is g.T @ x, Linear's is x.T @ g
        out += [x @ w.T, g.T @ x, x.T @ g, g @ w]
    return out


@pytest.mark.skipif(
    len(os.sched_getaffinity(0)) < 2 or _openblas_threads() is None,
    reason="needs 2 CPUs and an OpenBLAS whose pool can be resized",
)
@pytest.mark.parametrize("batch_size", [64, EVAL_BATCH_SIZE])
def test_gemm_bits_do_not_depend_on_blas_threads(batch_size):
    get, set_ = _openblas_threads()
    before = get()
    try:
        set_(1)
        single = gemm_products(batch_size)
        set_(2)
        assert get() == 2
        double = gemm_products(batch_size)
    finally:
        set_(before)
    for got, want in zip(double, single):
        assert_same(got, want)
