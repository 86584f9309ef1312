"""Unit tests for elementary Tensor operations and autodiff mechanics."""

import numpy as np
import pytest

from repro.grad import Tensor, no_grad

from tests.conftest import numerical_gradient
from tests.grad import kernel_reference as ref


def t(array, requires_grad=True):
    return Tensor(np.asarray(array, dtype=np.float64), requires_grad=requires_grad)


class TestConstruction:
    def test_wraps_array(self):
        x = Tensor([1.0, 2.0])
        assert x.shape == (2,)
        assert x.dtype == np.float64

    def test_int_tensor_cannot_require_grad(self):
        with pytest.raises(TypeError):
            Tensor(np.array([1, 2]), requires_grad=True)

    def test_zeros_ones(self):
        assert Tensor.zeros(2, 3).shape == (2, 3)
        assert Tensor.ones(4).data.sum() == 4.0

    def test_detach_cuts_graph(self):
        x = t([1.0, 2.0])
        y = (x * 2).detach()
        assert not y.requires_grad

    def test_item_on_scalar(self):
        assert Tensor(np.array(3.5)).item() == 3.5

    def test_len(self):
        assert len(Tensor([1.0, 2.0, 3.0])) == 3


class TestArithmetic:
    def test_add_values(self):
        out = t([1.0, 2.0]) + t([3.0, 4.0])
        np.testing.assert_allclose(out.data, [4.0, 6.0])

    def test_add_grad_flows_to_both(self):
        a, b = t([1.0, 2.0]), t([3.0, 4.0])
        (a + b).sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 1.0])
        np.testing.assert_allclose(b.grad, [1.0, 1.0])

    def test_scalar_add(self):
        a = t([1.0])
        (a + 5.0).sum().backward()
        np.testing.assert_allclose(a.grad, [1.0])

    def test_radd(self):
        out = 5.0 + t([1.0])
        np.testing.assert_allclose(out.data, [6.0])

    def test_sub_and_rsub(self):
        a = t([3.0])
        np.testing.assert_allclose((a - 1.0).data, [2.0])
        np.testing.assert_allclose((10.0 - a).data, [7.0])

    def test_rsub_grad_sign(self):
        a = t([3.0])
        (10.0 - a).sum().backward()
        np.testing.assert_allclose(a.grad, [-1.0])

    def test_mul_grad(self):
        a, b = t([2.0, 3.0]), t([5.0, 7.0])
        (a * b).sum().backward()
        np.testing.assert_allclose(a.grad, [5.0, 7.0])
        np.testing.assert_allclose(b.grad, [2.0, 3.0])

    def test_div_grad(self):
        a, b = t([6.0]), t([3.0])
        (a / b).backward(np.array([1.0]))
        np.testing.assert_allclose(a.grad, [1 / 3])
        np.testing.assert_allclose(b.grad, [-6 / 9])

    def test_rtruediv(self):
        a = t([4.0])
        (8.0 / a).sum().backward()
        np.testing.assert_allclose(a.grad, [-0.5])

    def test_pow_grad(self):
        a = t([2.0])
        (a**3).sum().backward()
        np.testing.assert_allclose(a.grad, [12.0])

    def test_pow_tensor_exponent_rejected(self):
        with pytest.raises(TypeError):
            t([2.0]) ** t([3.0])

    def test_broadcast_add_unbroadcasts_grad(self):
        a = t(np.ones((3, 4)))
        b = t(np.ones((4,)))
        (a + b).sum().backward()
        assert a.grad.shape == (3, 4)
        assert b.grad.shape == (4,)
        np.testing.assert_allclose(b.grad, [3.0] * 4)

    def test_broadcast_keepdim_axis(self):
        a = t(np.ones((3, 4)))
        b = t(np.ones((3, 1)))
        (a * b).sum().backward()
        np.testing.assert_allclose(b.grad, [[4.0]] * 3)

    def test_grad_accumulates_across_uses(self):
        a = t([1.0])
        loss = (a * 2).sum() + (a * 3).sum()
        loss.backward()
        np.testing.assert_allclose(a.grad, [5.0])


class TestUnaryOps:
    @pytest.mark.parametrize("op", ["relu"])
    def test_matches_numerical_gradient(self, op, rng):
        x0 = rng.standard_normal((3, 4)) + 0.1  # keep away from the kink at 0

        def fn(arr):
            return getattr(Tensor(arr, requires_grad=True), op)().sum().item()

        x = t(x0)
        getattr(x, op)().sum().backward()
        numeric = numerical_gradient(fn, x0)
        np.testing.assert_allclose(x.grad, numeric, rtol=1e-4, atol=1e-6)

    def test_relu_zeroes_negatives(self):
        x = t([-1.0, 2.0])
        out = x.relu()
        np.testing.assert_allclose(out.data, [0.0, 2.0])

class TestReductions:
    def test_sum_axis_keepdims(self):
        x = t(np.arange(6.0).reshape(2, 3))
        out = x.sum(axis=1, keepdims=True)
        assert out.shape == (2, 1)
        out.sum().backward()
        np.testing.assert_allclose(x.grad, np.ones((2, 3)))

    def test_mean_grad_scaled(self):
        x = t(np.ones((4,)))
        x.mean().backward()
        np.testing.assert_allclose(x.grad, [0.25] * 4)

    def test_mean_axis_tuple(self):
        x = t(np.ones((2, 3, 4)))
        out = x.mean(axis=(0, 2))
        assert out.shape == (3,)
        out.sum().backward()
        np.testing.assert_allclose(x.grad, np.full((2, 3, 4), 1 / 8))

    def test_var_matches_numpy(self):
        data = np.random.default_rng(0).standard_normal((5, 7))
        x = t(data)
        np.testing.assert_allclose(x.var(axis=0).data, data.var(axis=0), rtol=1e-6)

    def test_var_gradient(self, rng):
        x0 = rng.standard_normal((4, 3))

        def fn(arr):
            return Tensor(arr, requires_grad=True).var().item()

        x = t(x0)
        x.var().backward()
        np.testing.assert_allclose(x.grad, numerical_gradient(fn, x0), rtol=1e-4, atol=1e-7)

class TestShapeOps:
    def test_reshape_roundtrip_grad(self):
        x = t(np.arange(6.0))
        x.reshape(2, 3).sum().backward()
        assert x.grad.shape == (6,)

    def test_transpose_grad(self):
        x = t(np.arange(6.0).reshape(2, 3))
        (ref.tensor_transpose(x) * Tensor(np.arange(6.0).reshape(3, 2))).sum().backward()
        assert x.grad.shape == (2, 3)

class TestMatmul:
    """The reference matmul the linear layer is pinned to, against finite
    differences (the library itself multiplies only inside ``linear``)."""

    def test_matrix_matrix(self, rng):
        a0 = rng.standard_normal((3, 4))
        b0 = rng.standard_normal((4, 2))
        a, b = t(a0), t(b0)
        ref.tensor_matmul(a, b).sum().backward()

        def fn_a(arr):
            return float((arr @ b0).sum())

        def fn_b(arr):
            return float((a0 @ arr).sum())

        np.testing.assert_allclose(a.grad, numerical_gradient(fn_a, a0), rtol=1e-5)
        np.testing.assert_allclose(b.grad, numerical_gradient(fn_b, b0), rtol=1e-5)

    def test_matrix_vector(self, rng):
        a0, v0 = rng.standard_normal((3, 4)), rng.standard_normal(4)
        a, v = t(a0), t(v0)
        ref.tensor_matmul(a, v).sum().backward()
        np.testing.assert_allclose(a.grad, np.tile(v0, (3, 1)), rtol=1e-6)
        np.testing.assert_allclose(v.grad, a0.sum(axis=0), rtol=1e-6)

    def test_vector_matrix(self, rng):
        v0, b0 = rng.standard_normal(3), rng.standard_normal((3, 4))
        v, b = t(v0), t(b0)
        ref.tensor_matmul(v, b).sum().backward()
        np.testing.assert_allclose(v.grad, b0.sum(axis=1), rtol=1e-6)

    def test_vector_vector(self, rng):
        u0, v0 = rng.standard_normal(4), rng.standard_normal(4)
        u, v = t(u0), t(v0)
        ref.tensor_matmul(u, v).backward(np.array(1.0))
        np.testing.assert_allclose(u.grad, v0, rtol=1e-6)
        np.testing.assert_allclose(v.grad, u0, rtol=1e-6)


class TestGradMode:
    def test_no_grad_blocks_recording(self):
        x = t([1.0])
        with no_grad():
            y = x * 2
        assert not y.requires_grad

    def test_no_grad_restores_on_exception(self):
        from repro.grad import is_grad_enabled

        with pytest.raises(RuntimeError):
            with no_grad():
                raise RuntimeError("boom")
        assert is_grad_enabled()

    def test_backward_requires_grad(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).backward()

    def test_backward_nonscalar_needs_grad_arg(self):
        x = t([1.0, 2.0])
        with pytest.raises(RuntimeError):
            (x * 2).backward()

    def test_double_backward_rejected(self):
        x = t([2.0])
        loss = (x * x).sum()
        loss.backward()
        with pytest.raises(RuntimeError, match="already called"):
            loss.backward()

    def test_diamond_graph_correct(self):
        # y = x*x used twice downstream; gradient must not double-count.
        x = t([2.0])
        y = x * x
        z = y + y
        z.sum().backward()
        np.testing.assert_allclose(x.grad, [8.0])


def _f32(*shape):
    return np.arange(np.prod(shape), dtype=np.float32).reshape(shape) - 2.5


class TestAccumulate:
    """``Tensor._accumulate`` adopts a handed-over gradient only when it
    is fresh, writable, of the tensor's dtype and shape; anything else is
    copied (or summed down), so no gradient buffer aliases an array its
    caller still holds."""

    @pytest.mark.parametrize(
        "grads,want,adopted",
        [
            # a fresh, writable array of matching shape and dtype is kept
            pytest.param([(_f32(2, 3), True)], _f32(2, 3), 0, id="fresh-adopted"),
            # a broadcast view is read-only: copied even when "fresh"
            pytest.param(
                [(np.broadcast_to(_f32(3), (2, 3)), True)],
                np.broadcast_to(_f32(3), (2, 3)),
                None,
                id="broadcast-view-copied",
            ),
            pytest.param(
                [(_f32(2, 3).astype(np.float64), True)],
                _f32(2, 3),
                None,
                id="dtype-mismatch-copied",
            ),
            pytest.param(
                [(_f32(2, 3), False)], _f32(2, 3), None, id="not-fresh-copied"
            ),
            # the sum over the broadcast axis is new, so it is kept
            pytest.param(
                [(_f32(4, 2, 3), False)],
                _f32(4, 2, 3).sum(axis=0),
                None,
                id="shape-mismatch-unbroadcast",
            ),
            # the second gradient is added into the first one's buffer
            pytest.param(
                [(_f32(2, 3), True), (_f32(2, 3) * 3, False)],
                _f32(2, 3) * 4,
                0,
                id="second-adds-in-place",
            ),
        ],
    )
    def test_adoption_rules(self, grads, want, adopted):
        tensor = Tensor(np.zeros((2, 3), np.float32), requires_grad=True)
        before = [np.array(grad, copy=True) for grad, _ in grads]
        for grad, fresh in grads:
            tensor._accumulate(grad, fresh=fresh)
        assert tensor.grad.dtype == np.float32 and tensor.grad.flags.writeable
        np.testing.assert_array_equal(tensor.grad, want)
        for index, ((grad, _), kept) in enumerate(zip(grads, before)):
            if index == adopted:
                assert tensor.grad is grad
            else:
                assert not np.shares_memory(tensor.grad, grad)
                np.testing.assert_array_equal(grad, kept)
