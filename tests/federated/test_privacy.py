"""Tests for the differential-privacy extension (paper Section 6.1)."""

import math

import numpy as np
import pytest

from repro.data import ArrayDataset
from repro.federated import (
    FedAvg,
    FederatedConfig,
    FederatedServer,
    approximate_epsilon,
    make_clients,
)
from repro.federated.privacy import DP_CLIP_NORM, add_noise, clip_gradients
from repro.grad import nn
from repro.partition import HomogeneousPartitioner


class TestConfigValidation:
    def test_noise_nonnegative(self):
        with pytest.raises(ValueError, match="dp_noise_multiplier"):
            FederatedConfig(dp_noise_multiplier=-1.0)

    def test_defaults(self):
        assert FederatedConfig().dp_noise_multiplier == 0.0  # DP off
        assert DP_CLIP_NORM == 1.0


class TestClipping:
    def test_small_gradients_untouched(self):
        grads = [np.array([0.3, 0.4])]  # norm 0.5
        norm = clip_gradients(grads, clip_norm=1.0)
        assert norm == pytest.approx(0.5)
        np.testing.assert_allclose(grads[0], [0.3, 0.4])

    def test_large_gradients_scaled_to_bound(self):
        grads = [np.array([3.0, 4.0])]  # norm 5
        clip_gradients(grads, clip_norm=1.0)
        assert np.linalg.norm(grads[0]) == pytest.approx(1.0)

    def test_joint_norm_over_parameter_groups(self):
        grads = [np.array([3.0]), np.array([4.0])]
        clip_gradients(grads, clip_norm=2.5)
        joint = math.sqrt(sum(float((g**2).sum()) for g in grads))
        assert joint == pytest.approx(2.5)

    def test_zero_gradient_safe(self):
        grads = [np.zeros(3)]
        assert clip_gradients(grads, 1.0) == 0.0


class TestNoise:
    def test_zero_multiplier_is_noop(self, rng):
        grads = [np.ones(4)]
        add_noise(grads, clip_norm=1.0, noise_multiplier=0.0, batch_size=8, rng=rng)
        np.testing.assert_allclose(grads[0], 1.0)

    def test_noise_scale(self):
        gen = np.random.default_rng(0)
        grads = [np.zeros(100_000, dtype=np.float64)]
        add_noise(grads, clip_norm=2.0, noise_multiplier=1.5, batch_size=4, rng=gen)
        expected_std = 1.5 * 2.0 / 4
        assert grads[0].std() == pytest.approx(expected_std, rel=0.05)


class TestEpsilon:
    def test_stronger_noise_smaller_epsilon(self):
        weak = approximate_epsilon(100, 0.1, noise_multiplier=0.5)
        strong = approximate_epsilon(100, 0.1, noise_multiplier=4.0)
        assert strong < weak

    def test_more_steps_larger_epsilon(self):
        few = approximate_epsilon(10, 0.1, 1.0)
        many = approximate_epsilon(1000, 0.1, 1.0)
        assert many > few

    def test_zero_noise_infinite(self):
        assert approximate_epsilon(10, 0.1, 0.0) == math.inf

    def test_validation(self):
        with pytest.raises(ValueError):
            approximate_epsilon(0, 0.1, 1.0)
        with pytest.raises(ValueError):
            approximate_epsilon(10, 0.0, 1.0)
        with pytest.raises(ValueError):
            approximate_epsilon(10, 0.1, 1.0, delta=2.0)


class TestDPTraining:
    def make_server(self, noise, seed=0):
        rng = np.random.default_rng(seed)
        w = rng.standard_normal((5, 2)).astype(np.float32)
        x = rng.standard_normal((120, 5)).astype(np.float32)
        ds = ArrayDataset(x, (x @ w).argmax(axis=1).astype(np.int64))
        part = HomogeneousPartitioner().partition(ds, 3, rng)
        clients = make_clients(part, ds, seed=seed)
        model = nn.Sequential(nn.Linear(5, 2, rng=rng))
        config = FederatedConfig(
            num_rounds=3, local_epochs=2, batch_size=20, lr=0.1, seed=seed,
            dp_noise_multiplier=noise,
        )
        return FederatedServer(model, FedAvg(), clients, config, test_dataset=ds)

    def test_dp_training_runs_and_learns(self):
        server = self.make_server(0.2)
        history = server.fit()
        assert history.final_accuracy > 0.6

    def test_dp_changes_trajectory(self):
        clean = self.make_server(0.0, seed=2)
        noisy = self.make_server(1.0, seed=2)
        clean.fit(2)
        noisy.fit(2)
        key = next(iter(clean.global_state))
        assert not np.allclose(clean.global_state[key], noisy.global_state[key])

    def test_dp_deterministic_given_seed(self):
        a = self.make_server(0.5, seed=3)
        b = self.make_server(0.5, seed=3)
        a.fit(2)
        b.fit(2)
        for key in a.global_state:
            np.testing.assert_array_equal(a.global_state[key], b.global_state[key])

    def test_heavy_noise_hurts_accuracy(self):
        gentle = self.make_server(0.1, seed=4)
        harsh = self.make_server(20.0, seed=4)
        gentle_acc = gentle.fit(3).final_accuracy
        harsh_acc = harsh.fit(3).final_accuracy
        assert gentle_acc > harsh_acc - 0.05  # harsh should not be better
