"""Executor backends: one contract suite over every registered name.

``EXECUTORS`` is the table construction, spec validation and the CLI
read; registering a backend there is all it takes for it to be held to
the round contract below — bitwise equality with ``serial``, the
transactional commit, bounded retry and participant-order results.
"""

import copy

import numpy as np
import pytest

from repro.comm import RESIDUAL_KEY
from repro.data import ArrayDataset
from repro.federated import (
    ClientExecutor,
    FedAvg,
    FederatedConfig,
    FederatedServer,
    PartyFault,
    Scaffold,
    SerialExecutor,
    make_clients,
    make_executor,
)
from repro.federated import executor as executor_module
from repro.federated.executor import EXECUTORS
from repro.grad import nn
from repro.grad.capture import stacked_matmul_is_exact
from repro.partition import HomogeneousPartitioner

BACKENDS = EXECUTORS.names()


def toy_split(seed=7, n=320, n_test=60, dim=5, classes=3):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((dim, classes)).astype(np.float32)

    def sample(count):
        x = rng.standard_normal((count, dim)).astype(np.float32)
        return ArrayDataset(x, (x @ w).argmax(axis=1).astype(np.int64))

    return sample(n), sample(n_test)


def make_server(algorithm, num_parties=10, seed=0, batch_norm=True, **config_kwargs):
    """Ten parties of 32 samples: whole batches, so bulk backends engage."""
    train, test = toy_split()
    part = HomogeneousPartitioner().partition(
        train, num_parties, np.random.default_rng(seed)
    )
    clients = make_clients(part, train, seed=seed)
    rng = np.random.default_rng(1)
    layers = [nn.Linear(5, 16, rng=rng), nn.ReLU(), nn.Linear(16, 3, rng=rng)]
    if batch_norm:
        layers.insert(1, nn.BatchNorm1d(16))
    defaults = dict(
        num_rounds=2, local_epochs=2, batch_size=16, lr=0.05, seed=seed
    )
    defaults.update(config_kwargs)
    return FederatedServer(
        nn.Sequential(*layers), algorithm, clients, FederatedConfig(**defaults),
        test_dataset=test,
    )


def run_to_completion(server):
    with server:
        history = server.fit()
    return history


def history_dicts(server, ignore=()):
    records = [r.to_dict() for r in server.history.records]
    for record in records:
        for key in ignore:
            record.pop(key)
    return records


def assert_same_run(reference, other, ignore=()):
    """Bitwise equality of final global state, history, rng schedules and
    every client's committed per-party state."""
    for key in reference.global_state:
        np.testing.assert_array_equal(
            reference.global_state[key], other.global_state[key], err_msg=key
        )
    assert history_dicts(reference, ignore) == history_dicts(other, ignore)
    for a, b in zip(reference.clients, other.clients):
        assert a.rng.bit_generator.state == b.rng.bit_generator.state
        np.testing.assert_equal(b.state, a.state)


class TestExecutorSelection:
    def test_default_is_serial(self):
        assert isinstance(make_executor(FederatedConfig()), SerialExecutor)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_every_registered_name_builds(self, backend):
        executor = make_executor(FederatedConfig(executor=backend))
        assert isinstance(executor, ClientExecutor)

    def test_unknown_executor_rejected(self):
        # "auto" and "parallel" named the deleted fork pool.
        for name in ("threads", "auto", "parallel"):
            with pytest.raises(ValueError, match="unknown executor") as error:
                FederatedConfig(executor=name)
            assert all(backend in str(error.value) for backend in BACKENDS)


class _Flaky:
    """Mixin: the party's round raises for ``party``, ``failures`` times."""

    def __init__(self, party, failures):
        super().__init__()
        self.party = party
        self.failures = failures

    def begin(self, model, global_state, client, config, payload):
        if client.client_id == self.party and self.failures > 0:
            self.failures -= 1
            raise OSError("transient: connection reset")
        return super().begin(model, global_state, client, config, payload)


class FlakyFedAvg(_Flaky, FedAvg):
    pass


class FlakyScaffold(_Flaky, Scaffold):
    pass


CODECS = {
    "identity": dict(codec="identity"),
    "qsgd-8": dict(codec="qsgd", codec_bits=8),
    "randk": dict(codec="randk", codec_k=0.1),
}
FAULTS = {
    "no-faults": dict(),
    "crashes": dict(crash_prob=0.3, dropout_prob=0.15),
}


@pytest.fixture(params=BACKENDS)
def backend(request):
    if request.param != "serial" and not stacked_matmul_is_exact():
        pytest.skip(
            "bitwise contract needs slice-exact batched kernels; "
            "other hosts run --executor serial"
        )
    return request.param


@pytest.mark.comm
@pytest.mark.faults
class TestContract:
    """What every name in ``EXECUTORS`` owes the server."""

    def pair(self, backend, algorithm, **kwargs):
        kwargs.setdefault("batch_norm", False)
        reference = make_server(algorithm(), executor="serial", **kwargs)
        run_to_completion(reference)
        server = make_server(algorithm(), executor=backend, **kwargs)
        run_to_completion(server)
        return reference, server

    @pytest.mark.parametrize("faults", FAULTS.values(), ids=FAULTS.keys())
    @pytest.mark.parametrize("codec", CODECS.values(), ids=CODECS.keys())
    @pytest.mark.parametrize("algorithm", [FedAvg, Scaffold], ids=["fedavg", "scaffold"])
    def test_equals_serial(self, backend, algorithm, codec, faults):
        reference, server = self.pair(
            backend, algorithm, num_rounds=3, **codec, **faults
        )
        assert_same_run(reference, server)
        # Per-party state reported in ClientResult.client_state (control
        # variates, error-feedback residuals) was committed, not lost.
        trained = {p for r in server.history.records for p in r.participants}
        for party in trained:
            state = server.clients[party].state
            assert ("scaffold_c" in state) == (algorithm is Scaffold)
            assert (RESIDUAL_KEY in state) == (codec["codec"] == "randk")
        if algorithm is Scaffold:
            for a, b in zip(
                reference.algorithm.server_control, server.algorithm.server_control
            ):
                np.testing.assert_array_equal(a, b)

    def test_partial_participation_matches(self, backend):
        reference, server = self.pair(backend, FedAvg, sample_fraction=0.5)
        assert_same_run(reference, server)

    def test_local_bn_policy_matches(self, backend):
        # A backend may degrade a model it cannot batch (and say so in
        # ``fallback``); the numbers must not move.
        reference, server = self.pair(
            backend, FedAvg, batch_norm=True, bn_policy="local"
        )
        assert_same_run(reference, server, ignore=("fallback",))
        assert all("bn_local" in client.state for client in server.clients)

    def test_checkpoint_portable(self, backend, tmp_path):
        # Backends are interchangeable mid-run: ``exec`` is outside the
        # checkpoint's identity just as it is outside ``run_id``.
        path = str(tmp_path / "run.ckpt")
        kwargs = dict(batch_norm=False, num_rounds=4)
        straight = make_server(Scaffold(), executor="serial", **kwargs)
        run_to_completion(straight)
        with make_server(Scaffold(), executor="serial", **kwargs) as first:
            first.fit(2)
            first.save_checkpoint(path)
        with make_server(Scaffold(), executor=backend, **kwargs) as second:
            second.resume(path)
            second.fit(2)
        assert_same_run(straight, second)

    @pytest.mark.parametrize(
        "flaky", [FlakyFedAvg, FlakyScaffold], ids=["fedavg", "scaffold"]
    )
    def test_exhausted_retries_commit_nothing(self, backend, flaky):
        server = make_server(
            flaky(party=9, failures=0), executor=backend, batch_norm=False,
            codec="randk", codec_k=0.1,
        )
        server.fit(1)  # a clean round first, so there is state to corrupt
        before_rng = [c.rng.bit_generator.state for c in server.clients]
        before_state = copy.deepcopy([c.state for c in server.clients])
        server.algorithm.failures = 10**6
        with pytest.raises(OSError):
            server.executor.execute_round(server.global_state, list(range(10)))
        assert [c.rng.bit_generator.state for c in server.clients] == before_rng
        np.testing.assert_equal([c.state for c in server.clients], before_state)

    def test_transient_failure_recovers_bitwise(self, backend, monkeypatch):
        # Two failures against two retries: every backend has the
        # attempts to absorb them, whichever of its paths they land on.
        monkeypatch.setattr(executor_module, "MAX_RETRIES", 2)
        clean = make_server(FedAvg(), executor=backend, batch_norm=False)
        run_to_completion(clean)
        flaky = make_server(
            FlakyFedAvg(party=2, failures=2), executor=backend,
            batch_norm=False,
        )
        run_to_completion(flaky)
        assert flaky.algorithm.failures == 0
        assert flaky.history.records[0].fallback == "retry"
        assert_same_run(clean, flaky, ignore=("fallback",))

    def test_results_in_participant_order(self, backend):
        server = make_server(FedAvg(), executor=backend, batch_norm=False)
        participants = [7, 2, 9, 0, 4, 5]
        # A crash scheduled past the round's last step never fires, but
        # takes party 9 off any bulk path: it is processed out of turn
        # and must still come back in its place.
        execution = server.executor.execute_round(
            server.global_state, participants,
            faults={9: PartyFault(crash_after_steps=10**6)},
        )
        assert execution.completed == participants
        assert [r.client_id for r in execution.results] == participants
        assert execution.failed == {} and execution.fallback is None


class TestExecutorLifecycle:
    def test_close_is_idempotent(self):
        server = make_server(FedAvg())
        server.fit(1)
        server.close()
        server.close()

    def test_close_before_first_round_is_safe(self):
        server = make_server(FedAvg())
        server.close()

    def test_serial_executor_close_noop(self):
        server = make_server(FedAvg())
        run_to_completion(server)
        server.close()


class TestPurityContract:
    def test_client_round_wrapper_commits_state(self):
        # The compatibility wrapper = local_update + commit.
        server = make_server(Scaffold())
        client = server.clients[0]
        result = server.algorithm.client_round(
            server.model, server.global_state, client, server.config
        )
        assert "scaffold_c" in client.state
        for committed, returned in zip(
            client.state["scaffold_c"], result.client_state["scaffold_c"]
        ):
            np.testing.assert_array_equal(committed, returned)
        server.close()

    def test_local_update_does_not_touch_client_state(self):
        server = make_server(Scaffold())
        client = server.clients[0]
        payload = server.algorithm.broadcast_payload()
        server.algorithm.local_update(
            server.model, server.global_state, client, server.config, payload
        )
        assert client.state == {}
        server.close()
