"""Gradient checks for conv/pool/cross-entropy compound ops against finite differences."""

import numpy as np
import pytest

from repro.grad import Tensor
from repro.grad import functional as F
from repro.grad.ops import col2im, im2col

from tests.conftest import numerical_gradient


def t(array):
    return Tensor(np.asarray(array, dtype=np.float64), requires_grad=True)


class TestIm2Col:
    def test_shapes(self):
        images = np.arange(2 * 3 * 5 * 5, dtype=np.float64).reshape(2, 3, 5, 5)
        cols = im2col(images, kernel=3, stride=1, padding=0)
        assert cols.shape == (2 * 3 * 3, 3 * 3 * 3)

    def test_padding_changes_output_size(self):
        images = np.ones((1, 1, 4, 4))
        cols = im2col(images, kernel=3, stride=1, padding=1)
        assert cols.shape == (16, 9)

    def test_stride(self):
        images = np.ones((1, 1, 6, 6))
        cols = im2col(images, kernel=2, stride=2)
        assert cols.shape == (9, 4)

    def test_values_first_patch(self):
        images = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        cols = im2col(images, kernel=2, stride=1)
        np.testing.assert_allclose(cols[0], [0, 1, 4, 5])

    def test_col2im_is_adjoint_of_im2col(self, rng):
        # <im2col(x), y> == <x, col2im(y)> for all x, y (adjoint property),
        # which is exactly what the conv backward pass relies on.
        x = rng.standard_normal((2, 3, 6, 6))
        cols = im2col(x, kernel=3, stride=2, padding=1)
        y = rng.standard_normal(cols.shape)
        lhs = float((cols * y).sum())
        rhs = float((x * col2im(y, x.shape, kernel=3, stride=2, padding=1)).sum())
        assert lhs == pytest.approx(rhs, rel=1e-10)


class TestConv2d:
    def test_output_shape(self, rng):
        x = t(rng.standard_normal((2, 3, 8, 8)))
        w = t(rng.standard_normal((4, 3, 3, 3)))
        b = t(rng.standard_normal(4))
        out = F.conv2d(x, w, b, stride=1, padding=1)
        assert out.shape == (2, 4, 8, 8)

    def test_stride_shape(self, rng):
        x = t(rng.standard_normal((1, 1, 8, 8)))
        w = t(rng.standard_normal((2, 1, 3, 3)))
        assert F.conv2d(x, w, stride=2, padding=1).shape == (1, 2, 4, 4)

    def test_known_value_identity_kernel(self):
        x = t(np.arange(9.0).reshape(1, 1, 3, 3))
        w = np.zeros((1, 1, 3, 3))
        w[0, 0, 1, 1] = 1.0  # identity kernel
        out = F.conv2d(x, t(w), padding=1)
        np.testing.assert_allclose(out.data, x.data)

    def test_channel_mismatch_raises(self, rng):
        x = t(rng.standard_normal((1, 2, 4, 4)))
        w = t(rng.standard_normal((1, 3, 3, 3)))
        with pytest.raises(ValueError):
            F.conv2d(x, w)

    def test_rectangular_kernel_rejected(self, rng):
        x = t(rng.standard_normal((1, 1, 4, 4)))
        with pytest.raises(ValueError):
            F.conv2d(x, t(rng.standard_normal((1, 1, 2, 3))))

    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1)])
    def test_gradients_match_numerical(self, rng, stride, padding):
        x0 = rng.standard_normal((2, 2, 5, 5))
        w0 = rng.standard_normal((3, 2, 3, 3))
        b0 = rng.standard_normal(3)

        x, w, b = t(x0), t(w0), t(b0)
        F.conv2d(x, w, b, stride=stride, padding=padding).sum().backward()

        def loss_x(arr):
            return F.conv2d(t(arr), t(w0), t(b0), stride, padding).sum().item()

        def loss_w(arr):
            return F.conv2d(t(x0), t(arr), t(b0), stride, padding).sum().item()

        def loss_b(arr):
            return F.conv2d(t(x0), t(w0), t(arr), stride, padding).sum().item()

        np.testing.assert_allclose(x.grad, numerical_gradient(loss_x, x0), rtol=1e-4, atol=1e-7)
        np.testing.assert_allclose(w.grad, numerical_gradient(loss_w, w0), rtol=1e-4, atol=1e-7)
        np.testing.assert_allclose(b.grad, numerical_gradient(loss_b, b0), rtol=1e-4, atol=1e-7)


class TestPooling:
    def test_max_pool_values(self):
        x = t(np.arange(16.0).reshape(1, 1, 4, 4))
        out = F.max_pool2d(x, 2)
        np.testing.assert_allclose(out.data.reshape(-1), [5, 7, 13, 15])

    def test_max_pool_grad_routes_to_max(self):
        x = t(np.arange(16.0).reshape(1, 1, 4, 4))
        F.max_pool2d(x, 2).sum().backward()
        expected = np.zeros((4, 4))
        expected[1, 1] = expected[1, 3] = expected[3, 1] = expected[3, 3] = 1.0
        np.testing.assert_allclose(x.grad[0, 0], expected)

    def test_max_pool_gradient_numerical(self, rng):
        x0 = rng.standard_normal((2, 3, 4, 4))

        def loss(arr):
            return (F.max_pool2d(t(arr), 2) ** 2).sum().item()

        x = t(x0)
        (F.max_pool2d(x, 2) ** 2).sum().backward()
        np.testing.assert_allclose(x.grad, numerical_gradient(loss, x0), rtol=1e-4, atol=1e-7)

    def test_global_avg_pool(self, rng):
        x = t(rng.standard_normal((2, 3, 4, 4)))
        out = F.global_avg_pool2d(x)
        assert out.shape == (2, 3)
        np.testing.assert_allclose(out.data, x.data.mean(axis=(2, 3)), rtol=1e-6)


class TestSoftmaxAndLosses:
    def test_cross_entropy_uniform_logits(self):
        logits = t(np.zeros((2, 10)))
        loss = F.cross_entropy(logits, np.array([3, 7]))
        assert loss.item() == pytest.approx(np.log(10), rel=1e-6)

    def test_cross_entropy_gradient(self, rng):
        z0 = rng.standard_normal((5, 3))
        targets = np.array([0, 1, 2, 1, 0])

        def loss(arr):
            return F.cross_entropy(t(arr), targets).item()

        z = t(z0)
        F.cross_entropy(z, targets).backward()
        np.testing.assert_allclose(z.grad, numerical_gradient(loss, z0), rtol=1e-4, atol=1e-7)

    def test_cross_entropy_reductions(self, rng):
        z0 = rng.standard_normal((4, 3))
        targets = np.array([0, 1, 2, 0])
        per_sample = F.cross_entropy(t(z0), targets, reduction="none")
        assert per_sample.shape == (4,)
        total = F.cross_entropy(t(z0), targets, reduction="sum").item()
        mean = F.cross_entropy(t(z0), targets, reduction="mean").item()
        assert total == pytest.approx(per_sample.data.sum(), rel=1e-6)
        assert mean == pytest.approx(total / 4, rel=1e-6)

    def test_cross_entropy_batch_mismatch(self, rng):
        with pytest.raises(ValueError):
            F.cross_entropy(t(rng.standard_normal((4, 3))), np.array([0, 1]))

    def test_cross_entropy_rejects_onehot(self, rng):
        with pytest.raises(ValueError):
            F.cross_entropy(t(rng.standard_normal((4, 3))), np.eye(4, 3))

    def test_cross_entropy_unknown_reduction(self, rng):
        with pytest.raises(ValueError):
            F.cross_entropy(t(rng.standard_normal((2, 3))), np.array([0, 1]), reduction="avg")

class TestFusedCrossEntropy:
    """The fused forward+backward node must match finite differences.

    ``cross_entropy`` builds a single graph node whose backward is the
    closed form ``softmax - onehot`` (scaled per reduction) instead of
    chaining log_softmax/gather/mean nodes; each reduction has its own
    scaling path, so each gets its own finite-difference check.
    """

    def test_is_single_graph_node(self, rng):
        z = t(rng.standard_normal((3, 4)))
        loss = F.cross_entropy(z, np.array([0, 1, 2]))
        assert loss._parents == (z,)

    def test_sum_reduction_gradient(self, rng):
        z0 = rng.standard_normal((6, 4))
        targets = np.array([0, 3, 1, 2, 3, 0])

        def loss(arr):
            return F.cross_entropy(t(arr), targets, reduction="sum").item()

        z = t(z0)
        F.cross_entropy(z, targets, reduction="sum").backward()
        np.testing.assert_allclose(
            z.grad, numerical_gradient(loss, z0), rtol=1e-4, atol=1e-7
        )

    def test_none_reduction_gradient_with_upstream(self, rng):
        # Per-sample losses contracted against arbitrary weights exercise
        # the fused backward's per-row upstream-gradient broadcast.
        z0 = rng.standard_normal((5, 3))
        targets = np.array([2, 0, 1, 1, 2])
        weights = rng.standard_normal(5)

        def loss(arr):
            per_sample = F.cross_entropy(t(arr), targets, reduction="none")
            return (per_sample * Tensor(weights)).sum().item()

        z = t(z0)
        (F.cross_entropy(z, targets, reduction="none") * Tensor(weights)).sum().backward()
        np.testing.assert_allclose(
            z.grad, numerical_gradient(loss, z0), rtol=1e-4, atol=1e-7
        )

    def test_mean_gradient_is_softmax_minus_onehot(self, rng):
        z0 = rng.standard_normal((4, 6))
        targets = np.array([5, 0, 2, 4])
        z = t(z0)
        F.cross_entropy(z, targets).backward()
        expected = np.exp(z0 - z0.max(axis=1, keepdims=True))
        expected /= expected.sum(axis=1, keepdims=True)
        expected[np.arange(4), targets] -= 1.0
        np.testing.assert_allclose(z.grad, expected / 4, rtol=1e-6, atol=1e-9)

    def test_extreme_logits_stable(self):
        z = t(np.array([[1000.0, -1000.0, 0.0], [-1000.0, 1000.0, 0.0]]))
        loss = F.cross_entropy(z, np.array([0, 0]))
        assert np.isfinite(loss.item())
        loss.backward()
        assert np.all(np.isfinite(z.grad))

    def test_backward_does_not_mutate_forward_output(self, rng):
        # The fused backward reuses its exp buffer in place; the per-sample
        # losses handed to the caller must not change under backward.
        z = t(rng.standard_normal((3, 4)))
        per_sample = F.cross_entropy(z, np.array([0, 1, 2]), reduction="none")
        before = per_sample.data.copy()
        per_sample.sum().backward()
        np.testing.assert_array_equal(per_sample.data, before)



@pytest.mark.parametrize(
    "bias_shape, expected",
    [
        ((4,), lambda g: g.sum(axis=0)),
        ((1, 4), lambda g: g.sum(axis=0, keepdims=True)),
        ((2, 4), lambda g: g),
    ],
    ids=["1-d", "row", "full"],
)
def test_linear_bias_gradient_takes_the_bias_shape(bias_shape, expected):
    # A bias of any broadcastable shape gets the output gradient summed
    # down to its own shape, as ``x @ weight.T + bias`` unbroadcasts it.
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((2, 3)))
    weight = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    bias = Tensor(rng.standard_normal(bias_shape), requires_grad=True)
    grad = rng.standard_normal((2, 4))
    F.linear(x, weight, bias).backward(grad)
    np.testing.assert_array_equal(bias.grad, expected(grad))
    assert bias.grad.shape == bias_shape
