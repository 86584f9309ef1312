"""Hypothesis property tests for the autodiff substrate.

Algebraic identities that must hold for arbitrary shapes/values:
linearity of convolution, adjointness of im2col/col2im, shift invariance
of cross-entropy, gradient symmetry of commutative ops, and round-trips of
the parameter-vector serialization.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.grad import Tensor, functional as F
from repro.grad.ops import col2im, im2col
from repro.grad.serialize import parameters_to_vector, vector_to_parameters
from repro.grad.nn.module import Parameter

MAX_EXAMPLES = 30

small_floats = st.floats(
    min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False
)


def arrays(shape_strategy, elements=small_floats):
    return shape_strategy.flatmap(
        lambda shape: st.lists(
            elements, min_size=int(np.prod(shape)), max_size=int(np.prod(shape))
        ).map(lambda vals: np.array(vals, dtype=np.float64).reshape(shape))
    )


matrix_shapes = st.tuples(st.integers(1, 5), st.integers(1, 5))


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(data=arrays(matrix_shapes))
def test_add_commutative_values_and_grads(data):
    other = np.ones_like(data) * 0.5
    a1, b1 = Tensor(data, requires_grad=True), Tensor(other, requires_grad=True)
    (a1 + b1).sum().backward()
    a2, b2 = Tensor(data, requires_grad=True), Tensor(other, requires_grad=True)
    (b2 + a2).sum().backward()
    np.testing.assert_allclose(a1.grad, a2.grad)
    np.testing.assert_allclose(b1.grad, b2.grad)


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(data=arrays(matrix_shapes))
def test_mul_gradient_is_other_operand(data):
    other = np.arange(data.size, dtype=np.float64).reshape(data.shape) + 1.0
    a = Tensor(data, requires_grad=True)
    (a * Tensor(other)).sum().backward()
    np.testing.assert_allclose(a.grad, other)


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    rows=st.integers(1, 6),
    cols=st.integers(2, 8),
    shift=st.floats(-50.0, 50.0, allow_nan=False),
)
def test_cross_entropy_shift_invariance(seed, rows, cols, shift):
    rng = np.random.default_rng(seed)
    logits = rng.standard_normal((rows, cols))
    targets = rng.integers(0, cols, size=rows)
    # A different shift per row: softmax is invariant row by row.
    shifts = shift * np.arange(1, rows + 1)[:, None] / rows
    results = []
    for z in (logits, logits + shifts):
        leaf = Tensor(z, requires_grad=True)
        loss = F.cross_entropy(leaf, targets)
        loss.backward()
        results.append((loss.data, leaf.grad))
    (base_loss, base_grad), (shifted_loss, shifted_grad) = results
    np.testing.assert_allclose(base_loss, shifted_loss, rtol=1e-6, atol=1e-8)
    np.testing.assert_allclose(base_grad, shifted_grad, rtol=1e-6, atol=1e-8)


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    size=st.integers(4, 9),
    kernel=st.integers(1, 3),
    stride=st.integers(1, 2),
    padding=st.integers(0, 2),
)
def test_im2col_col2im_adjoint(seed, size, kernel, stride, padding):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((2, 2, size, size))
    cols = im2col(x, kernel, stride, padding)
    y = rng.standard_normal(cols.shape)
    lhs = float((cols * y).sum())
    rhs = float((x * col2im(y, x.shape, kernel, stride, padding)).sum())
    np.testing.assert_allclose(lhs, rhs, rtol=1e-9)


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(seed=st.integers(0, 10_000), alpha=small_floats, beta=small_floats)
def test_conv2d_linear_in_input(seed, alpha, beta):
    rng = np.random.default_rng(seed)
    x1 = rng.standard_normal((1, 2, 5, 5))
    x2 = rng.standard_normal((1, 2, 5, 5))
    w = Tensor(rng.standard_normal((3, 2, 3, 3)))
    combined = F.conv2d(Tensor(alpha * x1 + beta * x2), w, padding=1).data
    separate = (
        alpha * F.conv2d(Tensor(x1), w, padding=1).data
        + beta * F.conv2d(Tensor(x2), w, padding=1).data
    )
    np.testing.assert_allclose(combined, separate, rtol=1e-7, atol=1e-7)


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_max_pool_dominates_avg_pool(seed):
    x = np.random.default_rng(seed).standard_normal((1, 1, 4, 4))
    mx = F.max_pool2d(Tensor(x), 4).data.reshape(1, 1)
    av = F.global_avg_pool2d(Tensor(x)).data
    assert (mx >= av - 1e-12).all()


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(
    shapes=st.lists(
        st.tuples(st.integers(1, 4), st.integers(1, 4)), min_size=1, max_size=4
    ),
    seed=st.integers(0, 10_000),
)
def test_parameter_vector_roundtrip(shapes, seed):
    rng = np.random.default_rng(seed)
    params = [Parameter(rng.standard_normal(shape).astype(np.float32)) for shape in shapes]
    originals = [p.data.copy() for p in params]
    vec = parameters_to_vector(params)
    assert vec.size == sum(int(np.prod(s)) for s in shapes)
    # Perturb then restore.
    for p in params:
        p.data = p.data * 0
    vector_to_parameters(vec, params)
    for p, original in zip(params, originals):
        np.testing.assert_allclose(p.data, original, rtol=1e-6)


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 5))
def test_weighted_average_is_convex_and_permutation_invariant(seed, n):
    from repro.federated.aggregation import weighted_average_states

    rng = np.random.default_rng(seed)
    states = [{"w": rng.standard_normal(4)} for _ in range(n)]
    weights = rng.uniform(0.1, 1.0, size=n)
    avg = weighted_average_states(states, weights)["w"]
    stacked = np.stack([s["w"] for s in states])
    assert (avg >= stacked.min(axis=0) - 1e-9).all()
    assert (avg <= stacked.max(axis=0) + 1e-9).all()
    # Permutation invariance (same pairs of state/weight, shuffled).
    order = rng.permutation(n)
    shuffled = weighted_average_states(
        [states[i] for i in order], [weights[i] for i in order]
    )["w"]
    np.testing.assert_allclose(avg, shuffled, rtol=1e-9)


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(seed=st.integers(0, 10_000), lr=st.floats(1e-4, 0.5))
def test_sgd_step_matches_closed_form(seed, lr):
    from repro.grad.optim import SGD

    rng = np.random.default_rng(seed)
    p = Parameter(rng.standard_normal(5).astype(np.float32))
    before = p.data.copy()
    grad = rng.standard_normal(5).astype(np.float32)
    p.grad = grad.copy()
    SGD([p], lr=lr).step()
    np.testing.assert_allclose(p.data, before - lr * grad, rtol=1e-5)
