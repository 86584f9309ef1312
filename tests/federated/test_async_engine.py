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
    make_algorithm,
    make_clients,
)
from repro.grad.capture import stacked_engine, stacked_matmul_is_exact
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


ENGINE_ONLY = ("virtual_time", "staleness", "buffer_flush")

#: one row per composition the barrier contract is held to; every row runs
#: the same config through both engines (``aggregation`` aside)
BARRIER_ROWS = {
    **{
        f"{name}-{fraction}": dict(algorithm=name, sample_fraction=fraction)
        for name in ("fedavg", "fedprox", "scaffold", "fednova")
        for fraction in (1.0, 0.5)
    },
    "qsgd-8": dict(sample_fraction=0.5, codec="qsgd", codec_bits=8),
    "randk": dict(sample_fraction=0.5, codec="randk", codec_k=0.1),
    "dropout": dict(sample_fraction=0.5, dropout_prob=0.3, num_rounds=4),
    "crash": dict(sample_fraction=0.5, crash_prob=0.3, num_rounds=4),
    "crash+dropout": dict(
        sample_fraction=0.5, crash_prob=0.3, dropout_prob=0.3, num_rounds=4
    ),
    "straggler-deadline": dict(
        sample_fraction=0.5, straggler_prob=0.5, straggler_factor=3.0,
        deadline=2.0, num_rounds=4,
    ),
    # round(0.25 * 10) = 2 over-samples to 3, round(0.25 / 0.7 * 10) to 4:
    # the two loops used to disagree here.
    "oversample-rounding": dict(
        num_parties=10, sample_fraction=0.25, dropout_prob=0.3
    ),
    "stratified": dict(sample_fraction=0.5, sampler="stratified"),
    "stacked": dict(sample_fraction=0.5, executor="stacked", batch_size=8),
    "explicit-buffer": dict(
        sample_fraction=0.5, engine=dict(sample_per_round=3, buffer_size=3)
    ),
}


class TestBarrierEqualsSync:
    @pytest.mark.parametrize("row", BARRIER_ROWS)
    def test_barrier_equals_server(self, row):
        kwargs = dict(BARRIER_ROWS[row])
        algorithm = kwargs.pop("algorithm", "fedavg")
        engine_kwargs = kwargs.pop("engine", {})
        if kwargs.get("executor") == "stacked" and not stacked_matmul_is_exact():
            pytest.skip("stacked matmul is not bitwise-exact on this BLAS")

        model, clients, config, test = build_fixture(**kwargs)
        with FederatedServer(
            model, make_algorithm(algorithm), clients, config, test_dataset=test
        ) as server:
            sync_history = server.fit()

        model, engine_clients, config, test = build_fixture(
            aggregation="async", **{**kwargs, **engine_kwargs}
        )
        with AsyncFederation(
            model, make_algorithm(algorithm), MaterializedPopulation(engine_clients),
            config, test_dataset=test,
        ) as engine:
            async_history = engine.fit()

        sync_records = [r.to_dict() for r in sync_history.records]
        async_records = [r.to_dict() for r in async_history.records]
        if kwargs.get("executor") == "stacked":
            # A stacked group that fails reruns serially with equal bits,
            # so only the records and the engine show the degrade.
            for record in sync_records + async_records:
                assert record["fallback"] is None, record["fallback"]
            for run in (server, engine):
                programs = stacked_engine(run.model)
                assert programs.programs and not programs.failures
        times = [record["virtual_time"] for record in async_records]
        assert times == sorted(times)
        for sync_record, async_record in zip(sync_records, async_records):
            completed = len(async_record["participants"])
            assert async_record["staleness"] == [0] * completed
            assert async_record["buffer_flush"] == completed
            for key in ENGINE_ONLY:
                sync_record.pop(key)
                async_record.pop(key)
        np.testing.assert_equal(async_records, sync_records)
        if server.fault_model is not None:  # the row exercises what it names
            assert any(record["dropped"] for record in sync_records)
        for key, value in server.global_state.items():
            assert np.array_equal(value, engine.global_state[key]), key
        for a, b in zip(clients, engine_clients):
            assert a.rng.bit_generator.state == b.rng.bit_generator.state
            np.testing.assert_equal(b.state, a.state)


#: fault mixes without crashes (the replay leaves a crash uncharged, the
#: engine charges the steps it survived); all but ``stragglers`` drop
#: parties, so a completer's downlink is not the round's over its count
CLOCK_FAULTS = {
    "dropout": dict(dropout_prob=0.3),
    "stragglers": dict(straggler_prob=0.5, straggler_factor=3.0),
    "dropout+stragglers-partial": dict(
        dropout_prob=0.2, straggler_prob=0.4, straggler_factor=2.0,
        sample_fraction=0.5,
    ),
    "dropout+stragglers-deadline": dict(
        dropout_prob=0.2, straggler_prob=0.4, straggler_factor=4.0, deadline=2.0
    ),
}


class TestOnePartyClock:
    """``SystemModel.replay`` of a sync run is the barrier engine's clock."""

    @pytest.mark.parametrize("faults", CLOCK_FAULTS)
    def test_replay_equals_barrier_virtual_times(self, faults):
        from repro.experiments.runner import run_federated_experiment
        from repro.experiments.scale import SMOKE

        def history(**knobs):
            return run_federated_experiment(
                "adult", "iid", "fedavg", preset=SMOKE, seed=5, num_rounds=4,
                **CLOCK_FAULTS[faults], **knobs,
            ).history

        sync, barrier = history(), history(aggregation="async")
        assert any(record.dropped or record.slowdowns for record in sync.records)
        assert np.array_equal(SystemModel().replay(sync), barrier.virtual_times)


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


class TestStratifiedOnTheEventEngine:
    """``sampler`` is part of ``run_id``; the engine used to ignore it."""

    def sampled(self, **knobs):
        from repro.experiments.runner import run_federated_experiment
        from repro.experiments.scale import SMOKE

        outcome = run_federated_experiment(
            "adult", "dir(0.5)", "fedavg", preset=SMOKE, num_rounds=3,
            sample_fraction=0.3, **knobs,
        )
        return [record.sampled for record in outcome.history.records]

    def test_honoured_over_materialized_clients(self):
        stratified = self.sampled(sampler="stratified", aggregation="async")
        assert stratified == self.sampled(sampler="stratified")
        assert stratified != self.sampled(sampler="uniform", aggregation="async")

    def test_rejected_over_a_virtual_population(self):
        train, test = toy_split()
        population = VirtualPopulation(train, size=50, samples_per_client=16)
        config = FederatedConfig(
            aggregation="async", sample_per_round=5, sampler="stratified"
        )
        with pytest.raises(ValueError, match="stratified.*VirtualPopulation"):
            AsyncFederation(toy_model(), FedAvg(), population, config)


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
