"""Tests for SGD including the FedProx/SCAFFOLD extensions."""

import numpy as np
import pytest

from repro.grad import nn
from repro.grad.nn.module import Parameter
from repro.grad.optim import SGD


def make_param(values):
    return Parameter(np.asarray(values, dtype=np.float32))


class TestValidation:
    def test_empty_params_rejected(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)

    def test_bad_lr(self):
        with pytest.raises(ValueError):
            SGD([make_param([1.0])], lr=0.0)

    def test_bad_momentum(self):
        with pytest.raises(ValueError):
            SGD([make_param([1.0])], lr=0.1, momentum=1.0)

    def test_bad_mu(self):
        with pytest.raises(ValueError):
            SGD([make_param([1.0])], lr=0.1, proximal_mu=-1.0)

    def test_anchor_shape_check(self):
        opt = SGD([make_param([1.0, 2.0])], lr=0.1, proximal_mu=0.1)
        with pytest.raises(ValueError):
            opt.set_anchor([np.zeros(3)])

    def test_anchor_length_check(self):
        opt = SGD([make_param([1.0])], lr=0.1, proximal_mu=0.1)
        with pytest.raises(ValueError):
            opt.set_anchor([np.zeros(1), np.zeros(1)])

    def test_prox_without_anchor_raises(self):
        p = make_param([1.0])
        p.grad = np.array([1.0], dtype=np.float32)
        opt = SGD([p], lr=0.1, proximal_mu=0.5)
        with pytest.raises(RuntimeError):
            opt.step()


class TestVanillaSGD:
    def test_basic_step(self):
        p = make_param([1.0])
        p.grad = np.array([0.5], dtype=np.float32)
        SGD([p], lr=0.1).step()
        np.testing.assert_allclose(p.data, [0.95])

    def test_skips_params_without_grad(self):
        p = make_param([1.0])
        SGD([p], lr=0.1).step()
        np.testing.assert_allclose(p.data, [1.0])

    def test_momentum_accumulates(self):
        p = make_param([0.0])
        opt = SGD([p], lr=1.0, momentum=0.9)
        for _ in range(2):
            p.grad = np.array([1.0], dtype=np.float32)
            opt.step()
        # v1 = 1 -> p=-1; v2 = 0.9 + 1 = 1.9 -> p = -2.9
        np.testing.assert_allclose(p.data, [-2.9])

    def test_reset_state_clears_momentum(self):
        p = make_param([0.0])
        opt = SGD([p], lr=1.0, momentum=0.9)
        p.grad = np.array([1.0], dtype=np.float32)
        opt.step()
        opt.reset_state()
        p.grad = np.array([1.0], dtype=np.float32)
        opt.step()
        # Second step behaves like a first step again.
        np.testing.assert_allclose(p.data, [-2.0])

    def test_zero_grad(self):
        p = make_param([0.0])
        p.grad = np.array([1.0], dtype=np.float32)
        opt = SGD([p], lr=1.0)
        opt.zero_grad()
        assert p.grad is None


class TestProximalTerm:
    def test_prox_pulls_towards_anchor(self):
        p = make_param([2.0])
        p.grad = np.array([0.0], dtype=np.float32)
        opt = SGD([p], lr=0.1, proximal_mu=1.0)
        opt.set_anchor([np.array([0.0])])
        opt.step()
        # grad = 0 + 1.0 * (2 - 0) = 2 -> p = 2 - 0.2
        np.testing.assert_allclose(p.data, [1.8])

    def test_mu_zero_ignores_anchor(self):
        p = make_param([2.0])
        p.grad = np.array([1.0], dtype=np.float32)
        opt = SGD([p], lr=0.1, proximal_mu=0.0)
        opt.step()
        np.testing.assert_allclose(p.data, [1.9])

    def test_anchor_clearable(self):
        opt = SGD([make_param([1.0])], lr=0.1, proximal_mu=0.1)
        opt.set_anchor([np.array([0.0])])
        opt.set_anchor(None)
        assert opt._anchor is None

    def test_prox_at_anchor_is_noop(self):
        p = make_param([3.0])
        p.grad = np.array([0.0], dtype=np.float32)
        opt = SGD([p], lr=0.1, proximal_mu=5.0)
        opt.set_anchor([np.array([3.0])])
        opt.step()
        np.testing.assert_allclose(p.data, [3.0])


class TestCorrection:
    def test_correction_added_to_grad(self):
        p = make_param([0.0])
        p.grad = np.array([1.0], dtype=np.float32)
        opt = SGD([p], lr=0.1)
        opt.set_correction([np.array([2.0])])
        opt.step()
        # effective grad = 1 + 2 = 3
        np.testing.assert_allclose(p.data, [-0.3])

    def test_correction_shape_check(self):
        opt = SGD([make_param([1.0, 2.0])], lr=0.1)
        with pytest.raises(ValueError):
            opt.set_correction([np.zeros(5)])

    def test_correction_clearable(self):
        p = make_param([0.0])
        p.grad = np.array([1.0], dtype=np.float32)
        opt = SGD([p], lr=0.1)
        opt.set_correction([np.array([2.0])])
        opt.set_correction(None)
        opt.step()
        np.testing.assert_allclose(p.data, [-0.1])

    def test_grad_mode_feeds_momentum(self):
        # Algorithm 2 line 20 literally: momentum sees the corrected grad.
        p = make_param([0.0])
        opt = SGD([p], lr=1.0, momentum=0.5)
        opt.set_correction([np.array([1.0])], mode="grad")
        p.grad = np.array([0.0], dtype=np.float32)
        opt.step()  # v1 = 1
        p.grad = np.array([0.0], dtype=np.float32)
        opt.step()  # v2 = 0.5 + 1 = 1.5
        np.testing.assert_allclose(p.data, [-2.5])

    def test_step_mode_bypasses_momentum(self):
        # NIID-Bench behaviour: the correction hits the parameters
        # directly each step; momentum never accumulates it.
        p = make_param([0.0])
        opt = SGD([p], lr=1.0, momentum=0.5)
        opt.set_correction([np.array([1.0])], mode="step")
        for _ in range(2):
            p.grad = np.array([0.0], dtype=np.float32)
            opt.step()
        np.testing.assert_allclose(p.data, [-2.0])

    def test_correction_mode_validation(self):
        opt = SGD([make_param([0.0])], lr=1.0)
        with pytest.raises(ValueError):
            opt.set_correction([np.array([1.0])], mode="late")


class TestOneVector:
    """SGD keeps its parameters as views into one C-contiguous vector."""

    def make(self):
        gen = np.random.default_rng(0)
        model = nn.Sequential(nn.Linear(3, 4, rng=gen), nn.Linear(4, 2, rng=gen))
        return model, SGD(model.parameters(), lr=0.1, momentum=0.9)

    def step(self, model, optimizer):
        for param in model.parameters():
            param.grad = np.ones(param.data.shape, np.float32)
        optimizer.step()

    def test_parameters_share_one_vector(self):
        model, optimizer = self.make()
        params = model.parameters()
        before = [param.data for param in params]
        block = params[0].data.base
        assert block.ndim == 1 and block.flags.c_contiguous
        assert block.size == model.num_parameters()
        for _ in range(3):
            self.step(model, optimizer)
        for param, view in zip(params, before):
            assert param.data is view and view.base is block
            assert np.shares_memory(view, block)

    def test_rebinding_between_steps_raises(self):
        model, optimizer = self.make()
        self.step(model, optimizer)
        bias = model.parameters()[1]
        bias.data = bias.data.copy()
        with pytest.raises(RuntimeError, match="parameter 1"):
            self.step(model, optimizer)

    def test_load_state_dict_between_steps_raises(self):
        model, optimizer = self.make()
        self.step(model, optimizer)
        model.load_state_dict(model.state_dict())
        with pytest.raises(RuntimeError, match="rebound"):
            self.step(model, optimizer)

    def test_vector_to_parameters_keeps_the_views(self):
        from repro.grad import parameters_to_vector, vector_to_parameters

        model, optimizer = self.make()
        self.step(model, optimizer)
        views = [param.data for param in model.parameters()]
        vector = parameters_to_vector(model.parameters()) * 2
        vector_to_parameters(vector, model.parameters())
        assert all(p.data is view for p, view in zip(model.parameters(), views))
        np.testing.assert_array_equal(parameters_to_vector(model.parameters()), vector)
        self.step(model, optimizer)  # still the optimizer's vector


class TestSerializeHelpers:
    def test_vector_roundtrip(self):
        from repro.grad import parameters_to_vector, vector_to_parameters

        gen = np.random.default_rng(0)
        model = nn.Sequential(nn.Linear(3, 4, rng=gen), nn.Linear(4, 2, rng=gen))
        vec = parameters_to_vector(model.parameters())
        assert vec.size == model.num_parameters()
        vector_to_parameters(vec * 2, model.parameters())
        vec2 = parameters_to_vector(model.parameters())
        np.testing.assert_allclose(vec2, vec * 2, rtol=1e-6)

    def test_vector_size_check(self):
        from repro.grad import vector_to_parameters

        gen = np.random.default_rng(0)
        model = nn.Linear(3, 2, rng=gen)
        with pytest.raises(ValueError):
            vector_to_parameters(np.zeros(5), model.parameters())

    def test_state_dict_vector_roundtrip(self):
        from repro.grad import state_dict_to_vector, vector_to_state_dict

        state = {"a": np.arange(4.0).reshape(2, 2), "b": np.array([5.0])}
        vec = state_dict_to_vector(state)
        rebuilt = vector_to_state_dict(vec, state)
        np.testing.assert_allclose(rebuilt["a"], state["a"])
        np.testing.assert_allclose(rebuilt["b"], state["b"])

    def test_state_dict_vector_with_key_subset(self):
        from repro.grad import state_dict_to_vector, vector_to_state_dict

        state = {"a": np.ones(2), "b": np.full(3, 7.0)}
        vec = state_dict_to_vector(state, keys=["a"])
        assert vec.size == 2
        rebuilt = vector_to_state_dict(vec * 0, state, keys=["a"])
        np.testing.assert_allclose(rebuilt["a"], np.zeros(2))
        np.testing.assert_allclose(rebuilt["b"], state["b"])  # passthrough
