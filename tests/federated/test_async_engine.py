"""Virtual-clock async federation: barrier exactness, staleness, determinism."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.data import ArrayDataset
from repro.federated import (
    AsyncFederation,
    FedAvg,
    FederatedConfig,
    FederatedServer,
    MaterializedPopulation,
    Scaffold,
    VirtualPopulation,
    make_clients,
)
from repro.federated.systems import SystemModel
from repro.grad import nn
from repro.partition import HomogeneousPartitioner

# `async` is a Python keyword, so the marker is applied by name.
pytestmark = getattr(pytest.mark, "async")

REPO = Path(__file__).resolve().parents[2]


def toy_split(seed=0, n=96, n_test=60, dim=5, classes=3):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((dim, classes)).astype(np.float32)

    def sample(count):
        x = rng.standard_normal((count, dim)).astype(np.float32)
        return ArrayDataset(x, (x @ w).argmax(axis=1).astype(np.int64))

    return sample(n), sample(n_test)


def toy_model(seed=0, dim=5, classes=3):
    rng = np.random.default_rng(seed)
    return nn.Sequential(
        nn.Linear(dim, 16, rng=rng), nn.ReLU(), nn.Linear(16, classes, rng=rng)
    )


def build_fixture(seed=0, num_parties=6, **config_kwargs):
    train, test = toy_split(seed)
    partition = HomogeneousPartitioner().partition(
        train, num_parties, np.random.default_rng(seed)
    )
    clients = make_clients(partition, train, seed=seed)
    defaults = dict(num_rounds=3, local_epochs=1, batch_size=16, lr=0.05, seed=seed)
    defaults.update(config_kwargs)
    config = FederatedConfig(**defaults)
    return toy_model(seed), clients, config, test


class TestBarrierEqualsSync:
    @pytest.mark.parametrize("sample_fraction", [1.0, 0.5])
    def test_bitwise_equal_global_state(self, sample_fraction):
        model, clients, config, test = build_fixture(
            sample_fraction=sample_fraction
        )
        with FederatedServer(model, FedAvg(), clients, config, test_dataset=test) as server:
            sync_history = server.fit()
        sync_state = {k: np.copy(v) for k, v in server.global_state.items()}

        model, clients, config, test = build_fixture(
            sample_fraction=sample_fraction, aggregation="async"
        )
        population = MaterializedPopulation(clients)
        with AsyncFederation(
            model, FedAvg(), population, config, test_dataset=test
        ) as engine:
            async_history = engine.fit()

        for key in sync_state:
            assert np.array_equal(sync_state[key], engine.global_state[key]), key
        assert np.array_equal(sync_history.accuracies, async_history.accuracies)
        assert np.array_equal(sync_history.losses, async_history.losses)
        for s, a in zip(sync_history.records, async_history.records):
            assert s.participants == a.participants
            assert s.bytes_communicated == a.bytes_communicated
            assert a.staleness == [0] * len(a.participants)
            assert a.buffer_flush == len(a.participants)

    def test_explicit_buffer_equal_to_cohort_matches_sync(self):
        model, clients, config, test = build_fixture(sample_fraction=0.5)
        with FederatedServer(model, FedAvg(), clients, config, test_dataset=test) as server:
            sync_history = server.fit()

        model, clients, config, test = build_fixture(
            aggregation="async", sample_per_round=3, buffer_size=3
        )
        with AsyncFederation(
            model, FedAvg(), MaterializedPopulation(clients), config, test_dataset=test
        ) as engine:
            async_history = engine.fit()

        assert np.array_equal(sync_history.accuracies, async_history.accuracies)
        for key, value in server.global_state.items():
            assert np.array_equal(value, engine.global_state[key]), key

    def test_barrier_with_dropout_matches_sync(self):
        kwargs = dict(sample_fraction=0.5, dropout_prob=0.3, num_rounds=4)
        model, clients, config, test = build_fixture(**kwargs)
        with FederatedServer(model, FedAvg(), clients, config, test_dataset=test) as server:
            sync_history = server.fit()

        model, clients, config, test = build_fixture(aggregation="async", **kwargs)
        with AsyncFederation(
            model, FedAvg(), MaterializedPopulation(clients), config, test_dataset=test
        ) as engine:
            async_history = engine.fit()

        for s, a in zip(sync_history.records, async_history.records):
            assert s.participants == a.participants
            assert s.sampled == a.sampled
            assert s.dropped == a.dropped
        assert np.array_equal(sync_history.accuracies, async_history.accuracies)
        for key, value in server.global_state.items():
            assert np.array_equal(value, engine.global_state[key]), key


class TestBufferedAsync:
    def engine(self, **config_kwargs):
        defaults = dict(
            aggregation="async",
            sample_per_round=4,
            buffer_size=2,
            staleness_exponent=0.5,
            num_rounds=4,
        )
        defaults.update(config_kwargs)
        model, clients, config, test = build_fixture(**defaults)
        # Heterogeneous speeds interleave arrivals across dispatch
        # groups, so flushes genuinely mix staleness levels.
        system = SystemModel(compute_speeds=[1.0, 0.2, 3.0, 0.5, 2.0])
        return AsyncFederation(
            model, FedAvg(), MaterializedPopulation(clients), config,
            test_dataset=test, system=system,
        )

    def test_records_staleness_and_flush_sizes(self):
        with self.engine() as engine:
            history = engine.fit()
        assert len(history) == 4
        for record in history.records:
            assert record.buffer_flush == len(record.participants) == 2
            assert len(record.staleness) == 2
            assert all(s >= 0 for s in record.staleness)
        # Later flushes apply updates dispatched against older versions.
        assert history.mean_staleness() > 0
        # The virtual clock advances monotonically.
        times = history.virtual_times
        assert all(t2 >= t1 for t1, t2 in zip(times, times[1:]))

    def test_staleness_weighting_changes_aggregation(self):
        with self.engine(staleness_exponent=0.0) as flat:
            flat_history = flat.fit()
        with self.engine(staleness_exponent=2.0) as discounted:
            discounted.fit()
        key = next(iter(flat.global_state))
        assert not np.array_equal(
            flat.global_state[key], discounted.global_state[key]
        )
        assert len(flat_history) == 4

    def test_deterministic_within_process(self):
        with self.engine() as first:
            history_a = first.fit()
        with self.engine() as second:
            history_b = second.fit()
        assert np.array_equal(history_a.accuracies, history_b.accuracies)
        for a, b in zip(history_a.records, history_b.records):
            assert a.participants == b.participants
            assert a.staleness == b.staleness
            assert a.virtual_time == b.virtual_time
        for key, value in first.global_state.items():
            assert np.array_equal(value, second.global_state[key]), key


class TestVirtualPopulationRuns:
    def test_flat_memory_over_large_population(self):
        train, test = toy_split()
        population = VirtualPopulation(
            train, size=500_000, samples_per_client=16, seed=3
        )
        config = FederatedConfig(
            num_rounds=3, local_epochs=1, batch_size=8, lr=0.05,
            aggregation="async", sample_per_round=6, seed=3,
        )
        with AsyncFederation(
            toy_model(), FedAvg(), population, config, test_dataset=test
        ) as engine:
            history = engine.fit()
        assert len(history) == 3
        assert population.materialized_count == 0
        # Only parties that actually participated hold cold state.
        assert 0 < population.spilled_count <= 18


class TestEngineValidation:
    def test_cohort_cannot_exceed_population(self):
        model, clients, config, _ = build_fixture(
            aggregation="async", sample_per_round=7
        )
        with pytest.raises(ValueError, match="population"):
            AsyncFederation(model, FedAvg(), MaterializedPopulation(clients), config)

    def test_buffer_cannot_exceed_cohort(self):
        with pytest.raises(ValueError, match="buffer"):
            FederatedConfig(
                aggregation="async", sample_per_round=4, buffer_size=5
            )

    def test_non_delta_safe_algorithm_needs_barrier(self):
        model, clients, config, _ = build_fixture(
            aggregation="async", sample_per_round=4, buffer_size=2
        )
        with pytest.raises(ValueError, match="[Ss]caffold"):
            AsyncFederation(
                model, Scaffold(), MaterializedPopulation(clients), config
            )


_DETERMINISM_CHILD = """
import sys
from repro.spec import RunSpec
from repro.experiments.runner import run_spec
from repro.experiments.scale import SMOKE
from repro.experiments.store import ResultStore

spec = RunSpec.build(
    "fcube", "iid", "fedavg", preset=SMOKE, num_parties=4, num_rounds=3,
    aggregation="async", sample_per_round=3, buffer_size=2,
    staleness_exponent=0.5, seed=11,
)
store = ResultStore(sys.argv[1])
store.save(run_spec(spec))
"""


class TestCrossProcessDeterminism:
    def test_two_processes_produce_identical_store_entries(self, tmp_path):
        stores = []
        for name in ("a", "b"):
            store_dir = tmp_path / name
            subprocess.run(
                [sys.executable, "-c", _DETERMINISM_CHILD, str(store_dir)],
                check=True,
                cwd=REPO,
                env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
            )
            stores.append(store_dir)
        files_a = sorted(p.name for p in stores[0].glob("*.json"))
        files_b = sorted(p.name for p in stores[1].glob("*.json"))
        # run_id-keyed filenames agree across processes...
        assert files_a == files_b and len(files_a) == 1
        record_a = json.loads((stores[0] / files_a[0]).read_text())
        record_b = json.loads((stores[1] / files_b[0]).read_text())
        # ...and so does every recorded value: accuracies, event order
        # (participants per flush), staleness and virtual times.
        assert record_a == record_b
        rounds = record_a["history"]["records"]
        assert len(rounds) == 3
        assert any(r["staleness"] for r in rounds)
