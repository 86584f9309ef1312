"""Stacked executor: serial-vs-stacked equivalence, fallbacks, drift check.

The stacked executor's contract is bitwise identity to the serial path
on hosts whose batched kernels run each client slice through the same
code path as the 2-D ops — which ``stacked_matmul_is_exact()`` probes.
Where the probe fails the drift check raises on the first stacked group
(run those hosts with ``--executor serial``), so the tests that stack a
group skip there; construction and fallback tests run everywhere.
"""

import dataclasses
from collections import Counter

import numpy as np
import pytest

from repro.data import ArrayDataset
from repro.federated import (
    FedAlgorithm,
    FedAvg,
    FedProx,
    FederatedConfig,
    FederatedServer,
    SerialExecutor,
    StackedDriftError,
    StackedExecutor,
    make_algorithm,
    make_clients,
    make_executor,
)
from repro.federated import executor as executor_mod
from repro.federated.algorithms import ClientResult
from repro.federated.trainer import run_local_training
from repro.grad import nn
from repro.grad.capture import stacked_matmul_is_exact
from repro.grad.optim import StackedSGD
from repro.models.cnn import PaperCNN
from repro.partition import HomogeneousPartitioner

pytestmark = pytest.mark.stacked

#: for tests that stack a group, which the drift check rejects off such hosts
slice_exact = pytest.mark.skipif(
    not stacked_matmul_is_exact(),
    reason="this host's batched GEMM is not slice-exact",
)

ALGORITHMS = ("fedavg", "fedprox", "scaffold", "fednova")


def image_split(seed=5, n=256, side=16, classes=4):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 1, side, side)).astype(np.float32)
    y = rng.integers(0, classes, size=n).astype(np.int64)
    return ArrayDataset(x, y)


def tabular_split(seed=5, n=384, dim=12, classes=4):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((dim, classes)).astype(np.float32)
    x = rng.standard_normal((n, dim)).astype(np.float32)
    return ArrayDataset(x, (x @ w).argmax(axis=1).astype(np.int64))


def make_server(
    algorithm="fedavg",
    model_kind="mlp",
    executor="serial",
    num_parties=6,
    seed=11,
    crash_after_steps=None,
    **config_kwargs,
):
    """A server whose party sizes divide the batch size (stackable).

    ``algorithm`` is a registered name or a :class:`FedAlgorithm` subclass;
    ``crash_after_steps`` rebuilds the run's fault model with that crash step.
    """
    if model_kind == "mlp":
        train = tabular_split(n=64 * num_parties)
        rng = np.random.default_rng(1)
        model = nn.Sequential(
            nn.Linear(12, 16, rng=rng), nn.ReLU(), nn.Linear(16, 4, rng=rng)
        )
    else:
        train = image_split(n=32 * num_parties)
        model = PaperCNN(num_classes=4, rng=np.random.default_rng(1))
    part = HomogeneousPartitioner().partition(
        train, num_parties, np.random.default_rng(seed)
    )
    defaults = dict(
        num_rounds=2,
        local_epochs=2,
        batch_size=16,
        lr=0.05,
        seed=seed,
        executor=executor,
        stack_size=4,
    )
    defaults.update(config_kwargs)
    config = FederatedConfig(**defaults)
    clients = make_clients(part, train, seed=config.seed)
    if isinstance(algorithm, str):
        algorithm = make_algorithm(algorithm)
    else:
        algorithm = algorithm()
    server = FederatedServer(model, algorithm, clients, config, test_dataset=train)
    if crash_after_steps is not None:
        server.fault_model = dataclasses.replace(
            server.fault_model, crash_after_steps=crash_after_steps
        )
    return server


def assert_states_match(serial, stacked):
    for key in serial.global_state:
        np.testing.assert_array_equal(
            serial.global_state[key], stacked.global_state[key], err_msg=key
        )
    for left, right in zip(serial.clients, stacked.clients):
        assert left.rng.bit_generator.state == right.rng.bit_generator.state


def run_pair(**kwargs):
    serial = make_server(executor="serial", **kwargs)
    with serial:
        serial.fit()
    stacked = make_server(executor="stacked", **kwargs)
    with stacked:
        stacked.fit()
    return serial, stacked


@slice_exact
class TestEquivalenceMatrix:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_mlp(self, algorithm):
        serial, stacked = run_pair(algorithm=algorithm, model_kind="mlp")
        assert_states_match(serial, stacked)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_cnn(self, algorithm):
        serial, stacked = run_pair(
            algorithm=algorithm, model_kind="cnn", num_parties=4, num_rounds=1
        )
        assert_states_match(serial, stacked)

    def test_stacked_path_actually_runs(self, monkeypatch):
        """Guard against the matrix silently passing via serial fallback."""
        ran = spy_on_train_stack(monkeypatch)
        server = make_server(executor="stacked")
        with server:
            server.fit(1)
        assert ran, "no group ever reached the batched training phase"
        assert max(ran) >= 2


def spy_on_train_stack(monkeypatch):
    """Sizes of the groups that reach the batched training loop."""
    ran = []
    original = StackedExecutor._train_stack

    def spy(self, clients, starts):
        ran.append(len(clients))
        return original(self, clients, starts)

    monkeypatch.setattr(StackedExecutor, "_train_stack", spy)
    return ran


class TestOneRoundTemplate:
    """A stacked party runs the algorithm's ``begin`` / ``finish`` once."""

    @slice_exact
    def test_hooks_run_once_per_stacked_party(self, monkeypatch):
        calls = Counter()

        class Counting(FedAvg):
            def begin(self, *args):
                calls["begin"] += 1
                return super().begin(*args)

            def finish(self, *args):
                calls["finish"] += 1
                return super().finish(*args)

        # Counted on the base class: overriding ``local_update`` would (by
        # design) keep the algorithm off the stacked path altogether.
        template = FedAlgorithm.local_update

        def counted(self, *args):
            calls["local_update"] += 1
            return template(self, *args)

        monkeypatch.setattr(FedAlgorithm, "local_update", counted)
        ran = spy_on_train_stack(monkeypatch)
        server = make_server(Counting, executor="stacked")  # 6 parties, 2 rounds
        with server:
            server.fit()
        assert ran == [4, 2, 4, 2]  # every party of every round stacked
        # ``local_update`` is entered only by the once-per-run drift check,
        # which re-runs the first group (and with it ``begin``/``finish``).
        assert calls == {"begin": 12 + 4, "finish": 12 + 4, "local_update": 4}

    def test_disagreeing_terms_degrade_to_per_party(self, monkeypatch):
        class PerPartyProx(FedProx):
            def begin(self, model, global_state, client, config, payload):
                terms = super().begin(model, global_state, client, config, payload)
                terms["proximal_mu"] = 0.01 * (1 + client.client_id)
                return terms

        ran = spy_on_train_stack(monkeypatch)
        serial, stacked = run_pair(algorithm=PerPartyProx)
        assert not ran
        assert [r.fallback for r in serial.history.records] == [None, None]
        assert [r.fallback for r in stacked.history.records] == ["stacked:serial"] * 2
        for key in serial.global_state:
            np.testing.assert_array_equal(
                serial.global_state[key], stacked.global_state[key], err_msg=key
            )

    def test_own_local_update_is_never_stacked(self, monkeypatch):
        class OwnRound(FedAvg):
            def local_update(self, model, global_state, client, config, payload):
                model.load_state_dict(global_state)
                outcome = run_local_training(model, client, config)
                return ClientResult(
                    client_id=client.client_id,
                    state=outcome.state,
                    num_steps=outcome.num_steps,
                    num_samples=outcome.num_samples,
                    mean_loss=outcome.mean_loss,
                )

        ran = spy_on_train_stack(monkeypatch)
        serial, stacked = run_pair(algorithm=OwnRound)
        assert not ran
        assert [r.fallback for r in stacked.history.records] == [None, None]
        for key in serial.global_state:
            np.testing.assert_array_equal(
                serial.global_state[key], stacked.global_state[key], err_msg=key
            )


class TestFallbacks:
    def test_ragged_parties_fall_back_to_serial(self):
        """Sample counts not divisible by the batch size stay serial."""
        train = tabular_split(n=6 * 40)  # 40 % 16 != 0 for every party
        part = HomogeneousPartitioner().partition(
            train, 6, np.random.default_rng(3)
        )

        def build(executor):
            rng = np.random.default_rng(1)
            model = nn.Sequential(
                nn.Linear(12, 16, rng=rng), nn.ReLU(),
                nn.Linear(16, 4, rng=rng),
            )
            config = FederatedConfig(
                num_rounds=2, local_epochs=1, batch_size=16, lr=0.05,
                seed=7, executor=executor, stack_size=4,
            )
            clients = make_clients(part, train, seed=7)
            return FederatedServer(model, make_algorithm("fedavg"), clients, config)

        serial = build("serial")
        with serial:
            serial.fit()
        stacked = build("stacked")
        with stacked:
            stacked.fit()
        for key in serial.global_state:
            np.testing.assert_array_equal(
                serial.global_state[key], stacked.global_state[key], err_msg=key
            )

    def test_plan_groups_and_leftovers(self):
        server = make_server(executor="stacked", num_parties=6)
        executor = server.executor
        groups, serial = executor._plan(list(range(6)), None)
        assert sorted(sum(groups, serial)) == list(range(6))
        assert all(2 <= len(group) <= 4 for group in groups)

    def test_unsupported_model_falls_back_bitwise(self):
        """A model the stacked compiler rejects (batch norm) still runs."""

        def build(executor):
            train = tabular_split(n=6 * 32)
            part = HomogeneousPartitioner().partition(
                train, 6, np.random.default_rng(3)
            )
            rng = np.random.default_rng(1)
            model = nn.Sequential(
                nn.Linear(12, 16, rng=rng), nn.BatchNorm1d(16), nn.ReLU(),
                nn.Linear(16, 4, rng=rng),
            )
            config = FederatedConfig(
                num_rounds=2, local_epochs=1, batch_size=16, lr=0.05,
                seed=7, executor=executor, stack_size=4,
            )
            clients = make_clients(part, train, seed=7)
            return FederatedServer(model, make_algorithm("fedavg"), clients, config)

        serial = build("serial")
        with serial:
            serial.fit()
        stacked = build("stacked")
        with stacked:
            stacked.fit()
        for key in serial.global_state:
            np.testing.assert_array_equal(
                serial.global_state[key], stacked.global_state[key], err_msg=key
            )


@slice_exact
class TestCodecsAndFaults:
    def test_qsgd_codec_equivalence(self):
        serial, stacked = run_pair(
            codec="qsgd", codec_bits=6, num_rounds=3, local_epochs=1
        )
        assert_states_match(serial, stacked)
        assert serial.history.records[-1].bytes_up == (
            stacked.history.records[-1].bytes_up
        )

    def test_fault_injection_equivalence(self):
        serial, stacked = run_pair(
            num_rounds=3,
            local_epochs=1,
            dropout_prob=0.25,
            straggler_prob=0.3,
            straggler_factor=2.0,
            deadline=1.5,
        )
        assert_states_match(serial, stacked)
        left = [sorted(r.participants) for r in serial.history.records]
        right = [sorted(r.participants) for r in stacked.history.records]
        assert left == right

    def test_crash_faults_stay_serial(self):
        serial, stacked = run_pair(
            num_rounds=3, local_epochs=1, crash_prob=0.4, crash_after_steps=2
        )
        assert_states_match(serial, stacked)


@slice_exact
class TestCheckpointResume:
    def test_resume_is_bitwise(self, tmp_path):
        path = str(tmp_path / "stacked.ckpt")
        straight = make_server(executor="stacked", num_rounds=4)
        with straight:
            straight.fit(4)
        first = make_server(executor="stacked", num_rounds=4)
        with first:
            first.fit(2)
            first.save_checkpoint(path)
        resumed = make_server(executor="stacked", num_rounds=4)
        with resumed:
            resumed.resume(path)
            resumed.fit(2)
        for key in straight.global_state:
            np.testing.assert_array_equal(
                straight.global_state[key], resumed.global_state[key], err_msg=key
            )
        assert [r.to_dict() for r in straight.history.records] == [
            r.to_dict() for r in resumed.history.records
        ]


class TestDriftCheck:
    @slice_exact
    def test_block_updates_pass_the_bitwise_check(self, monkeypatch):
        # StackedSGD steps the program's (K, P) parameter block in one pass;
        # the first group's rerun through serial SGD must still match it
        # bit for bit (the check raises on any difference).
        blocks = set()
        original = StackedSGD.step

        def spy(self, grads):
            assert all(stack.base is self._block for stack in self.stacks)
            blocks.add(self._block.shape)
            original(self, grads)

        monkeypatch.setattr(executor_mod.StackedSGD, "step", spy)
        checks = []
        check = StackedExecutor._check_drift
        monkeypatch.setattr(
            StackedExecutor,
            "_check_drift",
            lambda self, *args: checks.append(check(self, *args)),
        )
        server = make_server("fedprox", executor="stacked")
        with server:
            server.fit(1)
        assert checks == [None]
        # 6 parties in groups of 4 and 2; the MLP has P = 12*16+16 + 16*4+4.
        assert blocks == {(4, 276), (2, 276)}

    def _perturbing(self, monkeypatch, scale):
        original = StackedSGD.step

        def perturbed(self, grads):
            original(self, grads)
            for stack in self.stacks:
                if stack is not None:
                    stack += np.float32(scale)

        monkeypatch.setattr(executor_mod.StackedSGD, "step", perturbed)

    def test_divergence_raises(self, monkeypatch):
        self._perturbing(monkeypatch, 1e-3)
        server = make_server(executor="stacked")
        with server:
            with pytest.raises(StackedDriftError, match="--executor serial"):
                server.fit(1)


class TestConstruction:
    def test_make_executor_stacked(self):
        executor = make_executor(FederatedConfig(executor="stacked", stack_size=8))
        assert isinstance(executor, StackedExecutor)
        assert executor.stack_size == 8

    def test_config_cannot_be_mutated_after_validation(self):
        config = FederatedConfig()
        with pytest.raises(AttributeError, match="read-only"):
            config.executor = "bogus"
        assert isinstance(make_executor(config), SerialExecutor)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError, match="stack_size"):
            StackedExecutor(stack_size=1)

    def test_config_validates_stacked_fields(self):
        with pytest.raises(ValueError, match="stack_size"):
            FederatedConfig(stack_size=1)

    def test_repr(self):
        assert "stack_size=4" in repr(StackedExecutor(stack_size=4))
