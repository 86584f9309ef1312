"""Tests for Module machinery, layers, state dicts and batch norm."""

import numpy as np
import pytest

from repro.grad import Tensor, nn
from repro.grad import functional as F

from tests.conftest import numerical_gradient


@pytest.fixture
def gen():
    return np.random.default_rng(7)


class TestModuleRegistry:
    def test_parameters_discovered(self, gen):
        layer = nn.Linear(3, 2, rng=gen)
        names = [name for name, _ in layer.named_parameters()]
        assert names == ["weight", "bias"]

    def test_nested_names(self, gen):
        model = nn.Sequential(nn.Linear(3, 4, rng=gen), nn.ReLU(), nn.Linear(4, 2, rng=gen))
        names = [name for name, _ in model.named_parameters()]
        assert names == ["0.weight", "0.bias", "2.weight", "2.bias"]

    def test_num_parameters(self, gen):
        layer = nn.Linear(3, 2, rng=gen)
        assert layer.num_parameters() == 3 * 2 + 2

    def test_zero_grad(self, gen):
        layer = nn.Linear(3, 2, rng=gen)
        loss = layer(Tensor(np.ones((1, 3), dtype=np.float32))).sum()
        loss.backward()
        assert layer.weight.grad is not None
        layer.zero_grad()
        assert layer.weight.grad is None

    def test_train_eval_propagates(self, gen):
        model = nn.Sequential(nn.Linear(2, 2, rng=gen), nn.BatchNorm1d(2))
        model.eval()
        assert all(not m.training for m in model.modules())
        model.train()
        assert all(m.training for m in model.modules())

    def test_buffers_discovered(self):
        bn = nn.BatchNorm2d(4)
        names = [name for name, _ in bn.named_buffers()]
        assert names == ["running_mean", "running_var", "num_batches_tracked"]

    def test_repr_contains_children(self, gen):
        model = nn.Sequential(nn.Linear(2, 2, rng=gen))
        assert "Linear" in repr(model)


class TestStateDict:
    def test_roundtrip(self, gen):
        model = nn.Sequential(nn.Linear(3, 4, rng=gen), nn.BatchNorm1d(4))
        state = model.state_dict()
        # Mutate, then restore.
        model[0].weight.data += 1.0
        model.load_state_dict(state)
        np.testing.assert_allclose(model[0].weight.data, state["0.weight"])

    def test_state_dict_is_a_copy(self, gen):
        model = nn.Linear(2, 2, rng=gen)
        state = model.state_dict()
        state["weight"] += 100.0
        assert not np.allclose(model.weight.data, state["weight"])

    def test_missing_key_raises(self, gen):
        model = nn.Linear(2, 2, rng=gen)
        state = model.state_dict()
        del state["bias"]
        with pytest.raises(KeyError):
            model.load_state_dict(state)

    def test_unexpected_key_raises(self, gen):
        model = nn.Linear(2, 2, rng=gen)
        state = model.state_dict()
        state["extra"] = np.zeros(1)
        with pytest.raises(KeyError):
            model.load_state_dict(state)

    def test_shape_mismatch_raises(self, gen):
        model = nn.Linear(2, 2, rng=gen)
        state = model.state_dict()
        state["weight"] = np.zeros((3, 3))
        with pytest.raises(ValueError):
            model.load_state_dict(state)

    def test_buffers_in_state_dict(self):
        bn = nn.BatchNorm1d(3)
        state = bn.state_dict()
        assert "running_mean" in state
        assert "num_batches_tracked" in state

    def test_load_restores_buffers(self):
        bn = nn.BatchNorm1d(3)
        state = bn.state_dict()
        bn(Tensor(np.random.default_rng(0).standard_normal((8, 3)).astype(np.float32)))
        assert int(bn.num_batches_tracked) == 1
        bn.load_state_dict(state)
        assert int(bn.num_batches_tracked) == 0
        np.testing.assert_allclose(bn.running_mean, np.zeros(3))


class TestLinear:
    def test_forward_matches_manual(self, gen):
        layer = nn.Linear(3, 2, rng=gen)
        x = np.random.default_rng(1).standard_normal((5, 3)).astype(np.float32)
        out = layer(Tensor(x))
        expected = x @ layer.weight.data.T + layer.bias.data
        np.testing.assert_allclose(out.data, expected, rtol=1e-5)

    def test_no_bias(self, gen):
        layer = nn.Linear(3, 2, bias=False, rng=gen)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_gradient_numerical(self, gen):
        layer = nn.Linear(3, 2, rng=gen)
        x = np.random.default_rng(1).standard_normal((4, 3))
        w0 = layer.weight.data.astype(np.float64)

        def loss(warr):
            return float(((x @ warr.T + layer.bias.data) ** 2).sum())

        out = layer(Tensor(x.astype(np.float32)))
        (out * out).sum().backward()
        numeric = numerical_gradient(loss, w0)
        np.testing.assert_allclose(layer.weight.grad, numeric, rtol=1e-2, atol=1e-3)


class TestBatchNorm:
    def test_normalizes_batch_in_train_mode(self, gen):
        bn = nn.BatchNorm1d(4)
        x = Tensor(np.random.default_rng(0).standard_normal((64, 4)).astype(np.float32) * 5 + 3)
        out = bn(x)
        np.testing.assert_allclose(out.data.mean(axis=0), np.zeros(4), atol=1e-4)
        np.testing.assert_allclose(out.data.std(axis=0), np.ones(4), atol=1e-2)

    def test_running_stats_update(self):
        bn = nn.BatchNorm1d(2)
        data = np.random.default_rng(0).standard_normal((32, 2)).astype(np.float32) + 10
        for _ in range(100):
            bn(Tensor(data))
        np.testing.assert_allclose(bn.running_mean, data.mean(axis=0), rtol=1e-2)

    def test_eval_uses_running_stats(self):
        bn = nn.BatchNorm1d(2)
        data = np.random.default_rng(0).standard_normal((32, 2)).astype(np.float32)
        for _ in range(50):
            bn(Tensor(data))
        bn.eval()
        single = bn(Tensor(data[:1]))  # batch of one: impossible without running stats
        assert np.isfinite(single.data).all()

    def test_eval_mode_does_not_update_stats(self):
        bn = nn.BatchNorm1d(2)
        bn.eval()
        before = bn.running_mean.copy()
        bn(Tensor(np.ones((4, 2), dtype=np.float32) * 7))
        np.testing.assert_allclose(bn.running_mean, before)

    def test_bn2d_shape_check(self):
        bn = nn.BatchNorm2d(3)
        with pytest.raises(ValueError):
            bn(Tensor(np.ones((2, 3), dtype=np.float32)))

    def test_bn2d_per_channel_normalization(self):
        bn = nn.BatchNorm2d(2)
        rng = np.random.default_rng(0)
        x = Tensor((rng.standard_normal((16, 2, 5, 5)) * [[[[2.0]], [[9.0]]]]).astype(np.float32))
        out = bn(x)
        np.testing.assert_allclose(out.data.mean(axis=(0, 2, 3)), np.zeros(2), atol=1e-4)
        np.testing.assert_allclose(out.data.std(axis=(0, 2, 3)), np.ones(2), atol=1e-2)

    def test_gradients_flow_to_affine_params(self):
        bn = nn.BatchNorm1d(3)
        x = Tensor(np.random.default_rng(0).standard_normal((8, 3)).astype(np.float32))
        (bn(x) ** 2).sum().backward()
        assert bn.weight.grad is not None
        assert bn.bias.grad is not None

    def test_input_gradient_numerical(self):
        bn = nn.BatchNorm1d(2)
        bn.weight.data = np.array([1.5, 0.5], dtype=np.float32)
        bn.bias.data = np.array([0.1, -0.2], dtype=np.float32)
        x0 = np.random.default_rng(3).standard_normal((6, 2))

        def loss(arr):
            fresh = nn.BatchNorm1d(2)
            fresh.weight.data = bn.weight.data.copy()
            fresh.bias.data = bn.bias.data.copy()
            return (fresh(Tensor(arr, requires_grad=True)) ** 2).sum().item()

        x = Tensor(x0, requires_grad=True)
        (bn(x) ** 2).sum().backward()
        np.testing.assert_allclose(x.grad, numerical_gradient(loss, x0), rtol=1e-3, atol=1e-5)


class TestConvLayerAndPooling:
    def test_conv_layer_shapes(self, gen):
        conv = nn.Conv2d(3, 8, 5, padding=2, rng=gen)
        out = conv(Tensor(np.zeros((2, 3, 16, 16), dtype=np.float32)))
        assert out.shape == (2, 8, 16, 16)

    def test_maxpool_layer(self):
        pool = nn.MaxPool2d(2)
        out = pool(Tensor(np.zeros((1, 1, 8, 8), dtype=np.float32)))
        assert out.shape == (1, 1, 4, 4)

    def test_flatten(self):
        out = nn.Flatten()(Tensor(np.zeros((2, 3, 4, 4), dtype=np.float32)))
        assert out.shape == (2, 48)

    def test_identity(self):
        x = Tensor(np.ones((2, 2), dtype=np.float32))
        assert nn.Identity()(x) is x

    def test_sequential_indexing(self, gen):
        model = nn.Sequential(nn.Linear(2, 3, rng=gen), nn.ReLU())
        assert isinstance(model[0], nn.Linear)
        assert isinstance(model[1], nn.ReLU)
        assert len(model) == 2


class TestLosses:
    def test_cross_entropy_module(self, gen):
        criterion = nn.CrossEntropyLoss()
        logits = Tensor(np.zeros((2, 4), dtype=np.float32), requires_grad=True)
        loss = criterion(logits, np.array([0, 1]))
        assert loss.item() == pytest.approx(np.log(4), rel=1e-5)

class TestEndToEndTraining:
    def test_mlp_learns_xor(self, gen):
        from repro.grad.optim import SGD

        x = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=np.float32)
        y = np.array([0, 1, 1, 0])
        model = nn.Sequential(nn.Linear(2, 16, rng=gen), nn.ReLU(), nn.Linear(16, 2, rng=gen))
        opt = SGD(model.parameters(), lr=0.5, momentum=0.9)
        for _ in range(300):
            opt.zero_grad()
            F.cross_entropy(model(Tensor(x)), y).backward()
            opt.step()
        acc = (model(Tensor(x)).argmax(axis=1) == y).mean()
        assert acc == 1.0

    def test_cnn_overfits_small_batch(self, gen):
        from repro.grad.optim import SGD

        rng = np.random.default_rng(0)
        x = rng.standard_normal((8, 1, 8, 8)).astype(np.float32)
        y = np.arange(8) % 4
        model = nn.Sequential(
            nn.Conv2d(1, 4, 3, padding=1, rng=gen),
            nn.ReLU(),
            nn.MaxPool2d(2),
            nn.Flatten(),
            nn.Linear(4 * 4 * 4, 4, rng=gen),
        )
        opt = SGD(model.parameters(), lr=0.1, momentum=0.9)
        for _ in range(150):
            opt.zero_grad()
            F.cross_entropy(model(Tensor(x)), y).backward()
            opt.step()
        acc = (model(Tensor(x)).argmax(axis=1) == y).mean()
        assert acc == 1.0
