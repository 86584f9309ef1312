"""The fast array kernels against the formulations they replaced.

``kernel_reference.py`` keeps the first versions of ReLU, the max pool
and col2im; hypothesis draws inputs full of what breaks kernels — NaN of
both signs, ±inf, ±0.0, ties (ReLU'd inputs tie at zero), overlapping
and non-divisible windows, padding, NHWC-strided views and a leading
stack axis — and each result must match the reference in bits (compared
as unsigned integers), shape, dtype and memory layout.

The second half is the non-finite contract end to end: a model whose
ReLU inputs hold NaN, ±inf or -0.0 evaluates and trains to the same bits
eagerly, compiled, and as a slice of a stacked program.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.data import ArrayDataset
from repro.federated.evaluation import evaluate
from repro.grad import functional as F
from repro.grad.capture import (
    compile_stacked_step,
    stacked_matmul_is_exact,
    training_engine,
)
from repro.grad.tensor import Tensor, relu_forward
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
        out._backward(grad)
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
    out, arg = F.max_pool_forward(x, kernel, stride)
    want_out, want_arg = ref.max_pool_forward(x, kernel, stride)
    assert_same(out, want_out)
    np.testing.assert_array_equal(arg, want_arg)
    grad = draw_values(rng, out.shape, out.dtype, 0.3)
    assert_same(
        F.max_pool_backward(grad, arg, x.shape, kernel, stride),
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
    got = F.col2im(columns, x.shape, kernel, stride, padding)
    assert_same(got, want, nan_payload=False)
    scratch: dict = {}
    for _ in range(2):  # the second call reuses the kept buffers
        got = F.col2im(columns, x.shape, kernel, stride, padding, scratch)
        assert_same(got, want, nan_payload=False)


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
