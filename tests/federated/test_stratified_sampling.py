"""Tests for the Section 6.1 non-IID-resistant (stratified) sampler."""

import numpy as np
import pytest

from repro.federated.sampling import StratifiedSampler
from repro.partition.stats import kl_divergence


def single_label_counts(num_parties=10, num_classes=10, per_party=50):
    """Party i holds only class i % num_classes (extreme label skew)."""
    counts = np.zeros((num_parties, num_classes))
    for party in range(num_parties):
        counts[party, party % num_classes] = per_party
    return counts


class TestValidation:
    def test_matrix_required(self):
        with pytest.raises(ValueError):
            StratifiedSampler(np.zeros(5))

    def test_nonnegative(self):
        with pytest.raises(ValueError):
            StratifiedSampler(np.array([[-1.0, 2.0]]))

    def test_nonzero(self):
        with pytest.raises(ValueError):
            StratifiedSampler(np.zeros((3, 2)))

    def test_fraction_range(self, rng):  # the amount is a party count
        sampler = StratifiedSampler(single_label_counts())
        with pytest.raises(ValueError):
            sampler.sample(0, rng)
        with pytest.raises(ValueError):
            sampler.sample(11, rng)


class TestSampling:
    def test_full_participation(self, rng):
        sampler = StratifiedSampler(single_label_counts())
        np.testing.assert_array_equal(sampler.sample(10, rng), np.arange(10))

    def test_count_and_uniqueness(self, rng):
        sampler = StratifiedSampler(single_label_counts(num_parties=20))
        chosen = sampler.sample(5, rng)
        assert len(chosen) == 5
        assert len(np.unique(chosen)) == 5

    def test_single_label_parties_get_distinct_classes(self, rng):
        # With one class per party, the KL-greedy picker must select
        # parties carrying distinct classes (that is the only way to
        # approximate the uniform global mix).
        counts = single_label_counts(num_parties=10, num_classes=10)
        sampler = StratifiedSampler(counts)
        chosen = sampler.sample(5, rng)
        classes = {int(counts[party].argmax()) for party in chosen}
        assert len(classes) == 5

    def test_beats_uniform_sampling_on_label_balance(self):
        from repro.federated.sampling import sample_clients

        counts = single_label_counts(num_parties=20, num_classes=10)
        sampler = StratifiedSampler(counts)
        global_mix = counts.sum(axis=0) / counts.sum()

        def pooled_kl(parties):
            pooled = counts[parties].sum(axis=0)
            return kl_divergence(global_mix, pooled / pooled.sum())

        rng = np.random.default_rng(0)
        stratified = np.mean(
            [pooled_kl(sampler.sample(4, rng)) for _ in range(20)]
        )
        rng = np.random.default_rng(0)
        uniform = np.mean(
            [pooled_kl(sample_clients(20, 4, rng)) for _ in range(20)]
        )
        assert stratified < uniform

    def test_tie_break_is_lowest_index(self):
        # Regression: with several parties tied on KL reduction, the
        # greedy picker used to follow Python set iteration (hash order);
        # ties must resolve to the lowest party index deterministically.
        counts = np.ones((6, 2))  # every party identical => all ties
        sampler = StratifiedSampler(counts)
        draws = set()
        for _ in range(10):
            rng = np.random.default_rng(3)
            draws.add(tuple(int(p) for p in sampler.sample(3, rng)))
        assert len(draws) == 1
        chosen = next(iter(draws))
        seed_party = int(np.random.default_rng(3).integers(6))
        # After the seed party, growth proceeds through the lowest
        # untaken indices because every candidate ties.
        expected = tuple(
            sorted([seed_party] + [p for p in range(6) if p != seed_party][:2])
        )
        assert chosen == expected

    def test_rotates_across_rounds(self):
        sampler = StratifiedSampler(single_label_counts(num_parties=10))
        rng = np.random.default_rng(0)
        draws = {tuple(sampler.sample(3, rng)) for _ in range(10)}
        assert len(draws) > 1  # random seed party rotates coverage


class TestServerIntegration:
    def test_stratified_run(self):
        from repro import run_federated_experiment
        from repro.experiments.scale import ScalePreset

        preset = ScalePreset(
            name="strat", n_train=300, n_test=150, num_rounds=3,
            local_epochs=2, batch_size=32,
        )
        outcome = run_federated_experiment(
            "mnist",
            "#C=1",
            "fedavg",
            preset=preset,
            num_parties=10,
            sample_fraction=0.3,
            sampler="stratified",
            seed=4,
        )
        # Every round samples 3 parties; with #C=1 those must span 3 classes.
        assert all(len(r.participants) == 3 for r in outcome.history.records)

    def test_invalid_sampler_rejected(self):
        from repro.federated import FederatedConfig

        with pytest.raises(ValueError):
            FederatedConfig(sampler="roundrobin")

    def test_empty_client_tolerated(self):
        # Regression: FederatedServer used to compute num_classes via
        # labels.max() per client, which raises on an empty party
        # (legitimate under extreme Dirichlet skew).
        from repro.data import ArrayDataset
        from repro.federated import (
            Client,
            FedAvg,
            FederatedConfig,
            FederatedServer,
        )

        x = np.random.default_rng(0).standard_normal((30, 4)).astype(np.float32)
        y = (np.arange(30) % 3).astype(np.int64)
        ds = ArrayDataset(x, y)
        clients = [
            Client(0, ds.subset(np.arange(15)), np.random.default_rng(1)),
            Client(1, ds.subset(np.arange(15, 30)), np.random.default_rng(2)),
            Client(2, ds.subset(np.array([], dtype=int)), np.random.default_rng(3)),
        ]
        from repro.grad import nn

        model = nn.Linear(4, 3, rng=np.random.default_rng(4))
        config = FederatedConfig(
            num_rounds=1, local_epochs=1, batch_size=8,
            sampler="stratified", sample_fraction=0.5,
        )
        server = FederatedServer(model, FedAvg(), clients, config)
        assert server._stratified is not None
        # The empty party contributes zero counts everywhere.
        np.testing.assert_array_equal(
            server._stratified.label_counts[2], np.zeros(3)
        )
        server.fit(1)

    def test_all_empty_clients_rejected(self):
        from repro.data import ArrayDataset
        from repro.federated import Client, FedAvg, FederatedConfig, FederatedServer
        from repro.grad import nn

        x = np.zeros((4, 2), dtype=np.float32)
        ds = ArrayDataset(x, np.zeros(4, dtype=np.int64))
        clients = [
            Client(i, ds.subset(np.array([], dtype=int)), np.random.default_rng(i))
            for i in range(2)
        ]
        model = nn.Linear(2, 2, rng=np.random.default_rng(0))
        config = FederatedConfig(sampler="stratified")
        with pytest.raises(ValueError, match="non-empty"):
            FederatedServer(model, FedAvg(), clients, config)
