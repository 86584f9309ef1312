"""Tests for the local-training block shared by all algorithms."""

import numpy as np
import pytest

from repro.data import ArrayDataset
from repro.federated import Client, FederatedConfig
from repro.federated.trainer import full_batch_gradient, run_local_training
from repro.grad import nn


def dataset(n=64, seed=0):
    rng = np.random.default_rng(seed)
    return ArrayDataset(
        rng.standard_normal((n, 4)).astype(np.float32),
        (np.arange(n) % 2).astype(np.int64),
    )


def client(seed=0, **kwargs):
    return Client(0, dataset(seed=seed), np.random.default_rng(seed), **kwargs)


def model(seed=0):
    rng = np.random.default_rng(seed)
    return nn.Sequential(nn.Linear(4, 8, rng=rng), nn.ReLU(), nn.Linear(8, 2, rng=rng))


def config(**kwargs):
    defaults = dict(num_rounds=1, local_epochs=2, batch_size=16, lr=0.05)
    defaults.update(kwargs)
    return FederatedConfig(**defaults)


class TestRunLocalTraining:
    def test_step_count(self):
        # 64 samples / batch 16 = 4 batches, 2 epochs -> 8 steps.
        result = run_local_training(model(), client(), config())
        assert result.num_steps == 8
        assert result.num_samples == 64

    def test_state_is_a_snapshot(self):
        net = model()
        result = run_local_training(net, client(), config())
        key = next(iter(result.state))
        before = result.state[key].copy()
        for param in net.parameters():
            param.data += 100.0
        np.testing.assert_array_equal(result.state[key], before)

    def test_mean_loss_finite_and_positive(self):
        result = run_local_training(model(), client(), config())
        assert np.isfinite(result.mean_loss)
        assert result.mean_loss > 0

    def test_training_changes_weights(self):
        net = model()
        before = net.state_dict()
        run_local_training(net, client(), config())
        key = [k for k in before if k.endswith("weight")][0]
        assert not np.allclose(before[key], net.state_dict()[key])

    def test_prox_needs_anchor(self):
        with pytest.raises(ValueError):
            run_local_training(model(), client(), config(), proximal_mu=0.5)

    def test_loss_decreases_with_more_epochs(self):
        quick = run_local_training(model(seed=1), client(seed=1), config(local_epochs=1))
        long = run_local_training(model(seed=1), client(seed=1), config(local_epochs=8))
        assert long.mean_loss < quick.mean_loss


class TestFullBatchGradient:
    def test_matches_direct_computation(self):
        from repro.grad import Tensor, functional as F

        net = model(seed=3)
        c = client(seed=3)
        grads = full_batch_gradient(net, c, config())

        net.zero_grad()
        loss = F.cross_entropy(
            net(Tensor(c.dataset.features)), c.dataset.labels, reduction="mean"
        )
        loss.backward()
        for estimated, param in zip(grads, net.parameters()):
            np.testing.assert_allclose(estimated, param.grad, rtol=1e-4, atol=1e-6)

    def test_leaves_no_grad_residue(self):
        net = model()
        full_batch_gradient(net, client(), config())
        assert all(param.grad is None for param in net.parameters())

    def test_shapes_match_parameters(self):
        net = model()
        grads = full_batch_gradient(net, client(), config())
        for grad, param in zip(grads, net.parameters()):
            assert grad.shape == param.data.shape


class TestCompiledRaggedFirstParty:
    """The engine's one program follows the largest batch: a small party
    that trains first must not pin it to its ragged shape."""

    @staticmethod
    def run(compile):
        from repro.federated import FedAvg, FederatedServer, make_clients
        from repro.partition.base import Partition

        sizes = (20, 128, 128)  # batch 64: one 20-row batch, then full ones
        train = dataset(n=sum(sizes), seed=4)
        bounds = np.cumsum((0,) + sizes)
        partition = Partition(
            [np.arange(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
        )
        cfg = config(num_rounds=2, local_epochs=1, batch_size=64, seed=3, compile=compile)
        clients = make_clients(partition, train, seed=cfg.seed)
        with FederatedServer(model(seed=2), FedAvg(), clients, cfg) as server:
            server.fit(cfg.num_rounds)
            history = [record.to_dict() for record in server.history.records]
            return history, server.global_state, server.model

    def test_full_shape_is_replayed_and_bitwise(self):
        from repro.grad.capture import training_engine

        eager_history, eager_state, _ = self.run(compile=False)
        history, state, net = self.run(compile=True)
        engine = training_engine(net)
        ((features_shape, *_), ) = engine.programs
        assert features_shape[0] == 64, "engine kept the ragged first shape"
        assert engine.captures == 2  # the 20-row batch, displaced by the full one
        # 2 parties x 2 full batches x 2 rounds, minus the capturing step.
        assert engine.replays == 7
        assert history == eager_history
        for key in eager_state:
            np.testing.assert_array_equal(state[key], eager_state[key], err_msg=key)

    def test_inference_engine_follows_largest_batch(self):
        from repro.grad import Tensor
        from repro.grad.capture import InferenceEngine

        net = model(seed=2)
        net.eval()
        engine = InferenceEngine(net)
        small, full = dataset(n=8).features, dataset(n=16, seed=1).features
        assert engine.forward(small) is not None  # captured
        assert engine.forward(full) is not None  # captured, displaces
        assert engine.captures == 2 and len(engine.programs) == 1
        np.testing.assert_array_equal(engine.forward(full), net(Tensor(full)).data)
        assert engine.replays == 1
        assert engine.forward(small) is None
        assert engine.fallbacks == 1
