"""Fault injection: dropout/straggler/crash schedules, deadline rounds,
transactional commit, and retry recovery."""

import dataclasses

import numpy as np
import pytest

from repro.data import ArrayDataset
from repro.federated import (
    FaultModel,
    FedAvg,
    FederatedConfig,
    FederatedServer,
    PartyFault,
    SerialExecutor,
    make_clients,
)
from repro.grad import nn
from repro.partition import HomogeneousPartitioner

pytestmark = pytest.mark.faults


def toy_dataset(seed=7, n=240, dim=5, classes=3):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((dim, classes)).astype(np.float32)
    x = rng.standard_normal((n, dim)).astype(np.float32)
    return ArrayDataset(x, (x @ w).argmax(axis=1).astype(np.int64))


def make_server(
    num_parties=8, algorithm=None, crash_after_steps=None, **config_kwargs
):
    """``crash_after_steps`` rebuilds the run's fault model with that crash step."""
    train = toy_dataset()
    part = HomogeneousPartitioner().partition(
        train, num_parties, np.random.default_rng(0)
    )
    defaults = dict(
        num_rounds=4, local_epochs=1, batch_size=16, lr=0.05,
        seed=11,
    )
    defaults.update(config_kwargs)
    config = FederatedConfig(**defaults)
    clients = make_clients(part, train, seed=config.seed)
    rng = np.random.default_rng(1)
    model = nn.Sequential(
        nn.Linear(5, 16, rng=rng), nn.ReLU(), nn.Linear(16, 3, rng=rng)
    )
    server = FederatedServer(
        model, algorithm or FedAvg(), clients, config, test_dataset=train
    )
    if crash_after_steps is not None:
        server.fault_model = dataclasses.replace(
            server.fault_model, crash_after_steps=crash_after_steps
        )
    return server


def rng_states(server):
    return [c.rng.bit_generator.state for c in server.clients]


def assert_same_history(a, b):
    assert [r.to_dict() for r in a.records] == [r.to_dict() for r in b.records]


class TestFaultModel:
    def test_draws_are_pure(self):
        model = FaultModel(dropout_prob=0.3, straggler_prob=0.2,
                           straggler_factor=3.0, crash_prob=0.1, seed=5)
        first = [model.party_fault(r, p) for r in range(4) for p in range(6)]
        second = [model.party_fault(r, p) for r in range(4) for p in range(6)]
        assert first == second
        # Order independence: drawing extra parties in between changes nothing.
        model.round_faults(0, range(100))
        assert model.party_fault(2, 3) == first[2 * 6 + 3]

    def test_probabilities_respected(self):
        model = FaultModel(dropout_prob=0.25, crash_prob=0.25, seed=9)
        fates = [model.party_fault(r, p) for r in range(50) for p in range(20)]
        dropped = sum(f.dropped for f in fates) / len(fates)
        crashed = sum(f.crash_after_steps is not None for f in fates) / len(fates)
        assert dropped == pytest.approx(0.25, abs=0.03)
        assert crashed == pytest.approx(0.25, abs=0.03)

    def test_inactive_model_is_none_from_config(self):
        config = FederatedConfig()
        assert FaultModel.from_config(config) is None
        config = FederatedConfig(dropout_prob=0.1)
        assert FaultModel.from_config(config) is not None

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultModel(dropout_prob=1.2)
        with pytest.raises(ValueError):
            FaultModel(dropout_prob=0.6, crash_prob=0.6)
        with pytest.raises(ValueError):
            FaultModel(straggler_factor=0.5)
        with pytest.raises(ValueError):
            FaultModel(crash_after_steps=0)

    def test_expected_drop_rate(self):
        model = FaultModel(dropout_prob=0.2, crash_prob=0.1,
                           straggler_prob=0.5, straggler_factor=4.0)
        assert model.expected_drop_rate(None) == pytest.approx(0.3)
        # deadline above the factor: stragglers finish in time
        assert model.expected_drop_rate(5.0) == pytest.approx(0.3)
        # deadline below the factor: stragglers are lost too
        assert model.expected_drop_rate(2.0) == pytest.approx(0.3 + 0.7 * 0.5)

    def test_party_fault_ok_property(self):
        assert PartyFault().ok
        assert not PartyFault(dropped=True).ok
        assert not PartyFault(slowdown=2.0).ok
        assert not PartyFault(crash_after_steps=1).ok


class TestConfigValidation:
    def test_deadline_below_one_rejected(self):
        with pytest.raises(ValueError):
            FederatedConfig(deadline=0.5)

    def test_checkpoint_every_needs_path(self):
        with pytest.raises(ValueError):
            FederatedConfig(checkpoint_every=2)


class TestDropoutRounds:
    def test_run_completes_and_records_drops(self):
        server = make_server(dropout_prob=0.3, sample_fraction=0.75)
        history = server.fit()
        assert len(history) == 4
        assert history.dropped_counts.sum() > 0
        for record in history.records:
            assert sorted(record.participants + record.dropped) == sorted(record.sampled)
            assert len(record.drop_reasons) == len(record.dropped)
            assert all(reason == "dropout" for reason in record.drop_reasons)
            # downlink charged for every sampled party, uplink for completers
            assert record.bytes_down % len(record.sampled) == 0
            assert record.bytes_up == sum(record.client_bytes_up)

    def test_deadline_drops_stragglers(self):
        server = make_server(
            straggler_prob=0.5, straggler_factor=4.0, deadline=2.0,
            num_rounds=6,
        )
        history = server.fit()
        reasons = [r for rec in history.records for r in rec.drop_reasons]
        assert reasons and set(reasons) == {"deadline"}
        # Survivors all ran at nominal speed, so slowdowns record 1.0.
        for record in history.records:
            assert all(s == 1.0 for s in record.slowdowns)

    def test_deadline_above_factor_keeps_stragglers(self):
        server = make_server(
            straggler_prob=0.5, straggler_factor=2.0, deadline=3.0,
            num_rounds=3,
        )
        history = server.fit()
        assert history.dropped_counts.sum() == 0
        slowdowns = [s for rec in history.records for s in rec.slowdowns]
        assert 2.0 in slowdowns  # stragglers completed, charged slow

    def test_over_sampling_keeps_expected_participation(self, monkeypatch):
        from repro.federated import server

        kwargs = dict(
            dropout_prob=0.4, sample_fraction=0.5, num_rounds=10,
            num_parties=10,
        )
        over = make_server(**kwargs).fit()
        monkeypatch.setattr(server, "OVER_SAMPLE", False)
        flat = make_server(**kwargs).fit()
        assert np.mean([len(r.sampled) for r in over.records]) > np.mean(
            [len(r.sampled) for r in flat.records]
        )
        # with over-sampling, mean completed participation stays near the
        # configured 5 parties; without it, near 3
        completed = np.mean([len(r.participants) for r in over.records])
        assert completed > np.mean([len(r.participants) for r in flat.records])

    def test_fault_free_run_unchanged_by_feature(self):
        # dropout_prob=0 must reproduce the pre-fault-layer run bitwise.
        baseline = make_server().fit()
        explicit = make_server(dropout_prob=0.0).fit()
        assert_same_history(baseline, explicit)
        for record in baseline.records:
            assert record.dropped == [] and record.fallback is None


class TestCrashInjection:
    def test_crash_discards_partial_work(self):
        # Crash every dispatched party: the round aggregates nothing and
        # the global model must be exactly the previous one.
        server = make_server(crash_prob=1.0, crash_after_steps=2)
        before_state = {k: v.copy() for k, v in server.global_state.items()}
        before_rng = rng_states(server)
        record = server.run_round(0)
        assert record.participants == []
        assert all(r.startswith("crash@step") for r in record.drop_reasons)
        assert np.isnan(record.train_loss)
        for key, value in server.global_state.items():
            np.testing.assert_array_equal(value, before_state[key])
        assert rng_states(server) == before_rng

    def test_crash_reason_records_step(self):
        server = make_server(crash_prob=1.0, crash_after_steps=3, local_epochs=2)
        record = server.run_round(0)
        assert set(record.drop_reasons) == {"crash@step3"}

    def test_crash_beyond_round_length_is_survived(self):
        # A party scheduled to die after more steps than the round runs
        # simply finishes — the injection only fires mid-training.
        server = make_server(crash_prob=1.0, crash_after_steps=50)
        record = server.run_round(0)
        assert record.dropped == []
        assert len(record.participants) == len(record.sampled)

    def test_crashed_party_rng_identical_to_never_sampled(self):
        # A party that crashes must leave the same generator schedule as
        # one the round never touched: later rounds stay aligned with a
        # run where the party simply dropped out.
        crashed = make_server(crash_prob=1.0, num_rounds=1).fit()
        dropped = make_server(dropout_prob=1.0, num_rounds=1).fit()
        s1 = make_server(crash_prob=1.0, num_rounds=1)
        s2 = make_server(dropout_prob=1.0, num_rounds=1)
        s1.fit()
        s2.fit()
        assert rng_states(s1) == rng_states(s2)
        assert crashed.records[0].participants == dropped.records[0].participants == []


class _FailsOncePerParty(FedAvg):
    """Raises once for a chosen party, then behaves normally (transient)."""

    def __init__(self, flaky_party):
        super().__init__()
        self.flaky_party = flaky_party
        self.raised = False

    def local_update(self, model, global_state, client, config, payload):
        if client.client_id == self.flaky_party and not self.raised:
            self.raised = True
            raise OSError("transient: connection reset")
        return super().local_update(model, global_state, client, config, payload)


class TestRetryRecovery:
    def test_serial_transient_retry_matches_fault_free(self):
        clean = make_server(num_rounds=2).fit()
        flaky = make_server(num_rounds=2, algorithm=_FailsOncePerParty(2))
        history = flaky.fit()
        assert history.records[0].fallback == "retry"
        assert flaky.algorithm.raised
        # The retried run is bitwise identical apart from the fallback tag.
        for rec_clean, rec_flaky in zip(clean.records, history.records):
            d1, d2 = rec_clean.to_dict(), rec_flaky.to_dict()
            d1.pop("fallback"), d2.pop("fallback")
            assert d1 == d2

    def test_serial_exhausted_retries_raise_without_commit(self):
        class AlwaysFails(FedAvg):
            def local_update(self, *args, **kwargs):
                raise OSError("permanently broken")

        server = make_server(num_rounds=1, algorithm=AlwaysFails())
        before = rng_states(server)
        with pytest.raises(OSError):
            server.run_round(0)
        # Transactional commit: no client generator moved.
        assert rng_states(server) == before
        assert len(server.history) == 0

    def test_partial_round_failure_commits_nothing(self):
        # Party 0 succeeds, a later party fails every retry: the earlier
        # success must not have advanced any client state either.
        class LaterPartyFails(FedAvg):
            def local_update(self, model, global_state, client, config, payload):
                if client.client_id >= 4:
                    raise OSError("down")
                return super().local_update(model, global_state, client, config, payload)

        server = make_server(num_rounds=1, algorithm=LaterPartyFails())
        before = rng_states(server)
        with pytest.raises(OSError):
            server.run_round(0)
        assert rng_states(server) == before


class TestExecutorDirect:
    def test_injected_crash_via_execute_round(self):
        server = make_server(num_rounds=1)
        executor = server.executor
        assert isinstance(executor, SerialExecutor)
        before = rng_states(server)
        execution = executor.execute_round(
            server.global_state,
            [0, 1, 2],
            faults={1: PartyFault(crash_after_steps=1)},
        )
        assert execution.completed == [0, 2]
        assert execution.failed == {1: "crash@step1"}
        assert len(execution.results) == 2
        # committed generators: only the completers moved
        after = rng_states(server)
        assert after[1] == before[1]
        assert after[0] != before[0] and after[2] != before[2]

    def test_injected_crash_is_not_retried(self, monkeypatch):
        from repro.federated import executor

        monkeypatch.setattr(executor, "MAX_RETRIES", 3)
        calls = []

        class Counting(FedAvg):
            def local_update(self, model, global_state, client, config, payload):
                calls.append(client.client_id)
                return super().local_update(model, global_state, client, config, payload)

        server = make_server(num_rounds=1, algorithm=Counting())
        server.executor.execute_round(
            server.global_state, [0], faults={0: PartyFault(crash_after_steps=1)}
        )
        assert calls == [0]  # one attempt, no retries

    def test_run_round_still_returns_bare_results(self):
        # Without faults every party completes: the bare result list.
        server = make_server(num_rounds=1)
        execution = server.executor.execute_round(server.global_state, [0, 1])
        assert [r.client_id for r in execution.results] == [0, 1]
        assert execution.failed == {} and execution.fallback is None
