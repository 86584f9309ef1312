"""Tests for model-space divergence metrics and top-1 accuracy."""

import numpy as np
import pytest

from repro.federated import evaluate
from repro.metrics import pairwise_weight_divergence, state_distance


class TestStateDistance:
    def test_zero_for_identical(self):
        state = {"w": np.array([1.0, 2.0])}
        assert state_distance(state, state) == 0.0

    def test_euclidean(self):
        a = {"w": np.array([0.0, 0.0])}
        b = {"w": np.array([3.0, 4.0])}
        assert state_distance(a, b) == pytest.approx(5.0)

    def test_key_subset(self):
        a = {"w": np.zeros(2), "b": np.zeros(1)}
        b = {"w": np.zeros(2), "b": np.ones(1)}
        assert state_distance(a, b, keys=["w"]) == 0.0
        assert state_distance(a, b, keys=["b"]) == 1.0

    def test_intersecting_keys_by_default(self):
        a = {"w": np.zeros(2), "extra": np.ones(1)}
        b = {"w": np.ones(2)}
        assert state_distance(a, b) == pytest.approx(np.sqrt(2))

    def test_update_norm(self):
        # the drift magnitude ||w^t - w_i^t|| of a local update
        before = {"w": np.zeros(3)}
        after = {"w": np.full(3, 2.0)}
        assert state_distance(before, after) == pytest.approx(np.sqrt(12))


class TestPairwiseDivergence:
    def test_empty_and_singleton(self):
        assert pairwise_weight_divergence([]) == 0.0
        assert pairwise_weight_divergence([{"w": np.ones(2)}]) == 0.0

    def test_identical_states(self):
        states = [{"w": np.ones(2)}] * 3
        assert pairwise_weight_divergence(states) == 0.0

    def test_mean_of_pairs(self):
        states = [
            {"w": np.array([0.0])},
            {"w": np.array([1.0])},
            {"w": np.array([2.0])},
        ]
        # pairs: |0-1|=1, |0-2|=2, |1-2|=1 -> mean 4/3
        assert pairwise_weight_divergence(states) == pytest.approx(4 / 3)


class TestTop1Accuracy:
    def test_matches_evaluation(self, rng):
        from repro.data import ArrayDataset
        from repro.grad import nn

        ds = ArrayDataset(
            rng.standard_normal((20, 4)).astype(np.float32),
            (np.arange(20) % 3).astype(np.int64),
        )
        model = nn.Linear(4, 3, rng=rng)
        acc = evaluate(model, ds).accuracy
        assert 0.0 <= acc <= 1.0
