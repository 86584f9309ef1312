"""Tests for FL building blocks: config, clients, sampling, aggregation,
history, evaluation."""

import numpy as np
import pytest

from repro.data import ArrayDataset
from repro.federated import (
    Client,
    FedAvg,
    FederatedConfig,
    FederatedServer,
    History,
    RoundRecord,
    make_clients,
)
from repro.federated.aggregation import (
    apply_update,
    merge_states,
    subtract_states,
    weighted_average_states,
)
from repro.federated.evaluation import evaluate
from repro.federated.sampling import sample_clients
from repro.grad import nn
from repro.partition import HomogeneousPartitioner


def small_dataset(n=40, classes=4, seed=0):
    rng = np.random.default_rng(seed)
    return ArrayDataset(
        rng.standard_normal((n, 3)).astype(np.float32),
        (np.arange(n) % classes).astype(np.int64),
    )


class TestConfig:
    def test_defaults_match_paper(self):
        from repro.federated.trainer import MOMENTUM

        config = FederatedConfig()
        assert config.local_epochs == 10
        assert config.batch_size == 64
        assert MOMENTUM == 0.9
        assert config.sample_fraction == 1.0

    @pytest.mark.parametrize(
        "field,value",
        [
            ("num_rounds", 0),
            ("local_epochs", -1),
            ("batch_size", 0),
            ("lr", 0.0),
            ("sample_fraction", 0.0),
            ("sample_fraction", 1.5),
            ("bn_policy", "weird"),
            ("eval_every", 0),
        ],
    )
    def test_validation(self, field, value):
        with pytest.raises(ValueError):
            FederatedConfig(**{field: value})

    @pytest.mark.parametrize("name", ["momentum", "server_lr", "max_retries", "dp"])
    def test_only_spec_knobs_accepted(self, name):
        with pytest.raises(TypeError, match=f"unknown config knobs \\['{name}'\\]"):
            FederatedConfig(**{name: 1})


class TestClient:
    def test_properties(self, rng):
        client = Client(3, small_dataset(), rng)
        assert client.client_id == 3
        assert client.num_samples == 40

    def test_empty_dataset_permitted(self, rng):
        # Legitimate under extreme Dirichlet skew; make_clients gates
        # construction, the server treats them as zero-count parties.
        ds = small_dataset()
        client = Client(0, ds.subset(np.array([], dtype=int)), rng)
        assert client.num_samples == 0

    def test_label_distribution(self, rng):
        client = Client(0, small_dataset(classes=4), rng)
        np.testing.assert_allclose(client.label_distribution(4), [0.25] * 4)

    def test_loader_respects_batch_size(self, rng):
        client = Client(0, small_dataset(), rng)
        batches = list(client.loader(16))
        assert [len(y) for _, y in batches] == [16, 16, 8]

    def test_make_clients_from_partition(self, rng):
        ds = small_dataset()
        part = HomogeneousPartitioner().partition(ds, 4, rng)
        clients = make_clients(part, ds, seed=1)
        assert len(clients) == 4
        assert sum(c.num_samples for c in clients) == 40

    def test_make_clients_deterministic(self, rng):
        ds = small_dataset()
        part = HomogeneousPartitioner().partition(ds, 4, rng)
        a = make_clients(part, ds, seed=1)
        b = make_clients(part, ds, seed=1)
        for ca, cb in zip(a, b):
            xa, _ = next(iter(ca.loader(8)))
            xb, _ = next(iter(cb.loader(8)))
            np.testing.assert_array_equal(xa, xb)

    def test_make_clients_empty_party_raises(self):
        from repro.partition import Partition

        ds = small_dataset()
        part = Partition(
            indices=[np.arange(40), np.array([], dtype=int)],
        )
        with pytest.raises(ValueError):
            make_clients(part, ds, drop_empty=False)
        clients = make_clients(part, ds, drop_empty=True)
        assert len(clients) == 1


def sampling_server(num_parties, **config_kwargs):
    """A server whose ``_sample`` draws from ``num_parties`` parties."""
    dataset = small_dataset(n=num_parties)
    part = HomogeneousPartitioner().partition(
        dataset, num_parties, np.random.default_rng(0)
    )
    return FederatedServer(
        nn.Linear(3, 4, rng=np.random.default_rng(0)),
        FedAvg(),
        make_clients(part, dataset, seed=0),
        FederatedConfig(**config_kwargs),
    )


class TestSampling:
    def test_full_participation_ordered(self):
        assert sampling_server(5)._sample(1.0) == list(range(5))

    def test_fraction_count(self):
        assert len(sampling_server(100)._sample(0.1)) == 10

    def test_at_least_one(self):
        assert len(sampling_server(3)._sample(0.01)) == 1

    def test_no_duplicates(self):
        sampled = sampling_server(100)._sample(0.5)
        assert len(np.unique(sampled)) == len(sampled) == 50

    def test_varies_across_calls(self):
        server = sampling_server(20)
        draws = {tuple(server._sample(0.25)) for _ in range(10)}
        assert len(draws) > 1

    def test_certain_loss_samples_everyone(self):
        # Over-sampling by 1 / (1 - d) used to divide by zero at d = 1.
        server = sampling_server(6, dropout_prob=1.0)
        assert server._sample(0.5) == list(range(6))

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            sample_clients(0, 1, rng)
        with pytest.raises(ValueError):
            FederatedConfig(sample_fraction=0.0)
        with pytest.raises(ValueError):
            FederatedConfig(sample_fraction=1.0001)


class TestAggregation:
    def test_weighted_average_basic(self):
        states = [{"w": np.array([0.0, 0.0])}, {"w": np.array([2.0, 4.0])}]
        out = weighted_average_states(states, [1, 1])
        np.testing.assert_allclose(out["w"], [1.0, 2.0])

    def test_weights_normalized(self):
        states = [{"w": np.array([0.0])}, {"w": np.array([10.0])}]
        out = weighted_average_states(states, [30, 10])
        np.testing.assert_allclose(out["w"], [2.5])

    def test_respects_key_subset(self):
        states = [{"a": np.ones(2), "b": np.zeros(2)}] * 2
        out = weighted_average_states(states, [1, 1], keys=["a"])
        assert "b" not in out

    def test_integer_buffers_cast_back(self):
        states = [
            {"n": np.asarray(3, dtype=np.int64)},
            {"n": np.asarray(5, dtype=np.int64)},
        ]
        out = weighted_average_states(states, [1, 1])
        assert out["n"].dtype == np.int64
        assert out["n"] == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            weighted_average_states([], [])
        with pytest.raises(ValueError):
            weighted_average_states([{"w": np.ones(1)}], [1, 2])
        with pytest.raises(ValueError):
            weighted_average_states([{"w": np.ones(1)}] * 2, [0, 0])
        with pytest.raises(ValueError):
            weighted_average_states([{"w": np.ones(1)}] * 2, [-1, 2])

    def test_subtract_states(self):
        delta = subtract_states({"w": np.array([3.0])}, {"w": np.array([1.0])}, ["w"])
        np.testing.assert_allclose(delta["w"], [2.0])

    def test_apply_update(self):
        state = {"w": np.array([1.0], dtype=np.float32), "b": np.array([5.0])}
        out = apply_update(state, {"w": np.array([2.0])}, lr=0.5)
        np.testing.assert_allclose(out["w"], [0.0])
        np.testing.assert_allclose(out["b"], [5.0])
        assert out["w"].dtype == np.float32

    def test_merge_states(self):
        base = {"a": np.zeros(2), "b": np.zeros(2)}
        overlay = {"a": np.ones(2), "b": np.ones(2)}
        out = merge_states(base, overlay, ["b"])
        np.testing.assert_allclose(out["a"], 0.0)
        np.testing.assert_allclose(out["b"], 1.0)


class TestHistory:
    def make_history(self, accs):
        h = History()
        for i, a in enumerate(accs):
            h.append(RoundRecord(i, a, train_loss=1.0, participants=[0]))
        return h

    def test_final_and_best(self):
        h = self.make_history([0.3, 0.8, 0.6])
        assert h.final_accuracy == 0.6
        assert h.best_accuracy == 0.8

    def test_skipped_evals_are_nan(self):
        h = self.make_history([0.3, None, 0.6])
        acc = h.accuracies
        assert np.isnan(acc[1])
        assert h.final_accuracy == 0.6

    def test_empty_history_raises(self):
        with pytest.raises(ValueError):
            self.make_history([]).final_accuracy

    def test_instability_metric(self):
        flat = self.make_history([0.5, 0.5, 0.5])
        wild = self.make_history([0.1, 0.9, 0.1])
        assert flat.accuracy_instability() == 0.0
        assert wild.accuracy_instability() == pytest.approx(0.8)

    def test_curve_drops_nan(self):
        h = self.make_history([0.3, None, 0.6])
        rounds, accs = h.curve()
        np.testing.assert_array_equal(rounds, [0, 2])
        np.testing.assert_allclose(accs, [0.3, 0.6])

    def test_to_dict_roundtrippable(self):
        h = self.make_history([0.5])
        data = h.to_dict()
        assert data["records"][0]["test_accuracy"] == 0.5

    def test_from_dict_json_roundtrip(self):
        import json

        h = History()
        h.append(
            RoundRecord(
                0, 0.5, train_loss=1.25, participants=[0, 2],
                bytes_communicated=1000, client_steps=[3, 4],
                bytes_down=600, bytes_up=400,
            )
        )
        h.append(RoundRecord(1, None, train_loss=1.0, participants=[1]))
        reloaded = History.from_dict(json.loads(json.dumps(h.to_dict())))
        assert [r.to_dict() for r in reloaded.records] == [
            r.to_dict() for r in h.records
        ]
        np.testing.assert_array_equal(
            reloaded.cumulative_communication(), h.cumulative_communication()
        )

    def test_from_dict_tolerates_records_without_byte_split(self):
        # Stores written before bytes_down/bytes_up existed must reload.
        data = {
            "records": [
                {
                    "round": 0,
                    "test_accuracy": 0.4,
                    "train_loss": 1.0,
                    "participants": [0],
                    "bytes_communicated": 80,
                    "client_steps": [2],
                }
            ]
        }
        record = History.from_dict(data).records[0]
        assert record.bytes_communicated == 80
        assert record.bytes_down == 0 and record.bytes_up == 0


class TestEvaluation:
    def test_perfect_model(self, rng):
        from repro.grad import nn

        # A fixed linear model that predicts class = argmax of input.
        ds = ArrayDataset(
            np.eye(3, dtype=np.float32), np.arange(3, dtype=np.int64)
        )
        model = nn.Linear(3, 3, rng=rng)
        model.weight.data = np.eye(3, dtype=np.float32) * 10
        model.bias.data = np.zeros(3, dtype=np.float32)
        assert evaluate(model, ds).accuracy == 1.0

    def test_empty_dataset_rejected(self, rng):
        from repro.grad import nn

        ds = small_dataset().subset(np.array([], dtype=int))
        with pytest.raises(ValueError):
            evaluate(nn.Linear(3, 4, rng=rng), ds)

    def test_restores_training_mode(self, rng):
        from repro.grad import nn

        model = nn.Sequential(nn.Linear(3, 4, rng=rng))
        model.train()
        evaluate(model, small_dataset())
        assert model.training

    def test_loss_positive(self, rng):
        from repro.grad import nn

        loss = evaluate(nn.Linear(3, 4, rng=rng), small_dataset()).loss
        assert loss > 0
