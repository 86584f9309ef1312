"""Algorithm-level tests: the mathematical identities the paper implies.

Key pinned properties:
- FedProx with mu=0 is exactly FedAvg (same trajectories, bit-for-bit);
- FedNova equals FedAvg when every party takes the same number of steps;
- FedNova removes the step-count bias when parties differ;
- SCAFFOLD's control variates satisfy Algorithm 2's update identities;
- single-client federations reduce every algorithm to centralized SGD.
"""

import numpy as np
import pytest

from repro.data import ArrayDataset
from repro.federated import (
    FedAvg,
    FedNova,
    FedOpt,
    FedProx,
    FederatedConfig,
    FederatedServer,
    Scaffold,
    make_algorithm,
    make_clients,
)
from repro.federated.trainer import run_local_training
from repro.models import TabularMLP
from repro.partition import HomogeneousPartitioner, Partition, QuantitySkew


def toy_dataset(n=120, classes=3, dim=6, seed=0):
    train, _ = toy_split(n=n, classes=classes, dim=dim, seed=seed)
    return train


def toy_split(n=120, n_test=90, classes=3, dim=6, seed=0):
    """Train/test drawn from one fixed labeling function."""
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((dim, classes)).astype(np.float32)

    def sample(count):
        x = rng.standard_normal((count, dim)).astype(np.float32)
        y = (x @ w).argmax(axis=1).astype(np.int64)
        return ArrayDataset(x, y)

    return sample(n), sample(n_test)


def make_setup(algorithm, num_parties=3, seed=0, partitioner=None, **config_kwargs):
    train, test = toy_split(seed=seed)
    partitioner = partitioner or HomogeneousPartitioner()
    part = partitioner.partition(train, num_parties, np.random.default_rng(seed))
    clients = make_clients(part, train, seed=seed)
    model = TabularMLP(6, 3, rng=np.random.default_rng(seed))
    defaults = dict(num_rounds=3, local_epochs=2, batch_size=16, lr=0.05, seed=seed)
    defaults.update(config_kwargs)
    config = FederatedConfig(**defaults)
    return FederatedServer(model, algorithm, clients, config, test_dataset=test)


def states_equal(a, b):
    return all(np.allclose(a[k], b[k], atol=1e-7) for k in a)


class TestMakeAlgorithm:
    @pytest.mark.parametrize(
        "name,cls",
        [
            ("fedavg", FedAvg),
            ("fedprox", FedProx),
            ("scaffold", Scaffold),
            ("fednova", FedNova),
            ("fedopt", FedOpt),
            ("FedAvg", FedAvg),
        ],
    )
    def test_builds(self, name, cls):
        assert isinstance(make_algorithm(name), cls)

    def test_kwargs_forwarded(self):
        assert make_algorithm("fedprox", mu=0.1).mu == 0.1
        assert make_algorithm("scaffold", option=1).option == 1

    def test_unknown(self):
        with pytest.raises(KeyError):
            make_algorithm("fedsgd")

    def test_param_validation(self):
        with pytest.raises(ValueError):
            FedProx(mu=-1)
        with pytest.raises(ValueError):
            Scaffold(option=3)
        with pytest.raises(ValueError):
            FedOpt(variant="rmsprop")


class TestRoundTemplate:
    """``local_update`` ≡ ``begin`` → ``run_local_training`` → ``finish``:
    the two hooks a batching backend calls around its own training loop."""

    @pytest.mark.parametrize(
        "build",
        [FedAvg, FedProx, Scaffold, lambda: Scaffold(option=1), FedNova, FedOpt],
        ids=["fedavg", "fedprox", "scaffold", "scaffold-option1", "fednova", "fedopt"],
    )
    def test_hand_composed_round_equals_local_update(self, build):
        def party_round(composed):
            server = make_setup(build())
            server.fit(1)  # so control variates are no longer all zero
            algorithm, client = server.algorithm, server.clients[0]
            args = (
                server.model, server.global_state, client, server.config,
                algorithm.broadcast_payload(),
            )
            if composed:
                terms = algorithm.begin(*args)
                before = client.rng.bit_generator.state
                outcome = run_local_training(
                    server.model, client, server.config, **terms
                )
                result = algorithm.finish(*args, terms, outcome)
            else:
                before = client.rng.bit_generator.state
                result = algorithm.local_update(*args)
            return result, before, client.rng.bit_generator.state

        direct, start, end = party_round(composed=False)
        composed, after_begin, composed_end = party_round(composed=True)
        assert after_begin == start, "begin drew from the party's generator"
        assert composed_end == end
        assert composed.num_steps == direct.num_steps
        np.testing.assert_equal(composed.state, direct.state)
        np.testing.assert_equal(composed.payload, direct.payload)
        np.testing.assert_equal(composed.client_state, direct.client_state)


class TestFedAvg:
    def test_improves_over_rounds(self):
        server = make_setup(FedAvg(), num_parties=3)
        history = server.fit(6)
        assert history.final_accuracy > 0.7

    def test_aggregation_is_weighted_average(self):
        # Two parties with sizes 10 and 30: the big one dominates 3:1.
        algo = FedAvg()

        class FakeModel:
            pass

        from repro.federated.algorithms.base import ClientResult

        algo._param_keys = ["w"]
        algo._buffer_keys = []
        algo._num_parties = 2
        results = [
            ClientResult(0, {"w": np.array([0.0])}, 5, 10, 0.0),
            ClientResult(1, {"w": np.array([4.0])}, 5, 30, 0.0),
        ]
        out = algo.aggregate({"w": np.array([9.0])}, results, FederatedConfig())
        np.testing.assert_allclose(out["w"], [3.0])

    def test_single_client_equals_local_training(self):
        # With one party holding everything, FedAvg round = E epochs of SGD.
        from repro.data.loader import DataLoader
        from repro.grad import Tensor, functional as F
        from repro.grad.optim import SGD

        train = toy_dataset(seed=3)
        part = Partition(indices=[np.arange(len(train))])
        clients = make_clients(part, train, seed=3)
        model = TabularMLP(6, 3, rng=np.random.default_rng(3))
        config = FederatedConfig(
            num_rounds=1, local_epochs=2, batch_size=16, lr=0.05, seed=3
        )
        server = FederatedServer(model, FedAvg(), clients, config)
        server.run_round(0)

        reference = TabularMLP(6, 3, rng=np.random.default_rng(3))
        opt = SGD(reference.parameters(), lr=0.05, momentum=0.9)
        loader = DataLoader(
            clients[0].dataset, 16, shuffle=True,
            rng=np.random.default_rng(np.random.default_rng(3).integers(2**63)),
        )
        for _ in range(2):
            for xb, yb in loader:
                opt.zero_grad()
                F.cross_entropy(reference(Tensor(xb)), yb).backward()
                opt.step()
        assert states_equal(server.global_state, reference.state_dict())


class TestFedProx:
    def test_mu_zero_equals_fedavg_exactly(self):
        avg = make_setup(FedAvg(), seed=7)
        prox = make_setup(FedProx(mu=0.0), seed=7)
        avg.fit(3)
        prox.fit(3)
        assert states_equal(avg.global_state, prox.global_state)
        np.testing.assert_allclose(
            avg.history.accuracies, prox.history.accuracies
        )

    def test_large_mu_limits_drift(self):
        from repro.metrics import state_distance

        distances = {}
        for mu in (0.0, 10.0):
            server = make_setup(FedProx(mu=mu), seed=5)
            initial = dict(server.global_state)
            server.fit(2)
            keys = [k for k, _ in server.model.named_parameters()]
            distances[mu] = state_distance(initial, server.global_state, keys)
        assert distances[10.0] < 0.5 * distances[0.0]

    def test_learns_with_moderate_mu(self):
        server = make_setup(FedProx(mu=0.01))
        assert server.fit(6).final_accuracy > 0.7


class TestFedNova:
    def test_equal_steps_equals_fedavg(self):
        # Homogeneous equal-size parties take identical step counts, so
        # normalize-then-rescale is a no-op and FedNova == FedAvg.
        avg = make_setup(FedAvg(), seed=11)
        nova = make_setup(FedNova(), seed=11)
        avg.fit(3)
        nova.fit(3)
        assert states_equal(avg.global_state, nova.global_state)

    def test_unequal_steps_differ_from_fedavg(self):
        partitioner = QuantitySkew(0.2, min_size=5)
        avg = make_setup(FedAvg(), seed=13, partitioner=partitioner)
        nova = make_setup(FedNova(), seed=13, partitioner=partitioner)
        avg.fit(2)
        nova.fit(2)
        assert not states_equal(avg.global_state, nova.global_state)

    def test_normalization_math(self):
        # Hand-computed: two parties, equal sizes, tau = 1 and 4,
        # deltas 1.0 and 4.0 -> direction = (1/2)(1/1) + (1/2)(4/4) = 1.0,
        # tau_eff = (1+4)/2 = 2.5, step = 2.5 * 1.0.
        from repro.federated.algorithms.base import ClientResult

        algo = FedNova()
        algo._param_keys = ["w"]
        algo._buffer_keys = []
        algo._num_parties = 2
        global_state = {"w": np.array([10.0])}
        results = [
            ClientResult(0, {"w": np.array([9.0])}, 1, 50, 0.0),  # delta 1, tau 1
            ClientResult(1, {"w": np.array([6.0])}, 4, 50, 0.0),  # delta 4, tau 4
        ]
        out = algo.aggregate(global_state, results, FederatedConfig())
        np.testing.assert_allclose(out["w"], [10.0 - 2.5])

    def test_zero_steps_rejected(self):
        from repro.federated.algorithms.base import ClientResult

        algo = FedNova()
        algo._param_keys = ["w"]
        algo._buffer_keys = []
        algo._num_parties = 1
        with pytest.raises(ValueError):
            algo.aggregate(
                {"w": np.zeros(1)},
                [ClientResult(0, {"w": np.zeros(1)}, 0, 10, 0.0)],
                FederatedConfig(),
            )

    def test_learns(self):
        server = make_setup(FedNova())
        assert server.fit(6).final_accuracy > 0.7


class TestScaffold:
    def test_control_variates_initialized_zero(self):
        server = make_setup(Scaffold())
        for c in server.algorithm.server_control:
            np.testing.assert_allclose(c, 0.0)

    def test_first_round_equals_fedavg(self):
        # With c = c_i = 0 the corrected gradient is the plain gradient, so
        # round 0 of SCAFFOLD matches round 0 of FedAvg exactly.
        avg = make_setup(FedAvg(), seed=17)
        sca = make_setup(Scaffold(option=2), seed=17)
        avg.fit(1)
        sca.fit(1)
        assert states_equal(avg.global_state, sca.global_state)

    def test_later_rounds_differ_from_fedavg(self):
        avg = make_setup(FedAvg(), seed=17)
        sca = make_setup(Scaffold(option=2), seed=17)
        avg.fit(3)
        sca.fit(3)
        assert not states_equal(avg.global_state, sca.global_state)

    def test_server_control_moves_after_round(self):
        server = make_setup(Scaffold(option=2))
        server.fit(1)
        total = sum(np.abs(c).sum() for c in server.algorithm.server_control)
        assert total > 0

    def test_client_control_sum_relation_option2(self):
        # Option (ii): c_i* = c_i - c + (w^t - w_i)/(tau * lr).  After the
        # first round (c_i = c = 0) this means c_i* = delta_i / (tau * lr).
        server = make_setup(Scaffold(option=2), num_parties=2, seed=19)
        initial = {k: v.copy() for k, v in server.global_state.items()}
        config = server.config
        results = []
        for client in server.clients:
            results.append(
                server.algorithm.client_round(
                    server.model, initial, client, config
                )
            )
        for client, result in zip(server.clients, results):
            param_keys = server.algorithm.param_keys
            scale = 1.0 / (result.num_steps * config.lr)
            for key, c_i in zip(param_keys, client.state["scaffold_c"]):
                expected = scale * (
                    np.asarray(initial[key], dtype=np.float64)
                    - np.asarray(result.state[key], dtype=np.float64)
                )
                np.testing.assert_allclose(c_i, expected, rtol=1e-5, atol=1e-7)

    def test_option1_uses_fullbatch_gradient(self):
        server = make_setup(Scaffold(option=1), num_parties=2, seed=19)
        server.fit(1)
        # c = (1/N) sum c_i* should equal the average full-batch gradient
        # direction scale-wise; at minimum it must be non-zero and finite.
        for c in server.algorithm.server_control:
            assert np.isfinite(c).all()
        total = sum(np.abs(c).sum() for c in server.algorithm.server_control)
        assert total > 0

    def test_both_options_learn(self):
        # SCAFFOLD's round-to-round accuracy is unstable (a paper finding),
        # so assert on the best accuracy reached rather than the last.
        for option in (1, 2):
            server = make_setup(Scaffold(option=option))
            assert server.fit(8).best_accuracy > 0.65, f"option {option}"

    def test_server_control_update_uses_total_party_count(self):
        # With sample_fraction < 1, c moves by 1/N (N = all parties), not
        # 1/|S_t| — the very property that breaks SCAFFOLD in Figure 12.
        server = make_setup(
            Scaffold(option=2), num_parties=4, sample_fraction=0.5, seed=23
        )
        server.fit(1)
        participants = server.history.records[0].participants
        assert len(participants) == 2
        # Recompute expected c from the participating clients' c_i (which
        # equal their delta_c after round one since they started at zero).
        expected = [np.zeros_like(c) for c in server.algorithm.server_control]
        for party in participants:
            for slot, c_i in zip(expected, server.clients[party].state["scaffold_c"]):
                slot += np.asarray(c_i) / 4.0
        for got, want in zip(server.algorithm.server_control, expected):
            np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-9)


class TestFedOpt:
    def test_sgdm_learns(self):
        server = make_setup(FedOpt(variant="sgdm"), seed=29)
        assert server.fit(6).final_accuracy > 0.6

    def test_adam_learns(self):
        server = make_setup(FedOpt(variant="adam"), seed=29)
        assert server.fit(6).final_accuracy > 0.5

    def test_momentum_accumulates(self):
        server = make_setup(FedOpt(variant="sgdm"), seed=29)
        server.fit(2)
        total = sum(np.abs(v).sum() for v in server.algorithm._momentum_buf.values())
        assert total > 0


class TestFedNovaMomentumCorrection:
    def test_effective_steps_formula(self):
        from repro.federated.algorithms.fednova import effective_steps

        # No momentum: effective steps = raw steps.
        assert effective_steps(7, 0.0) == 7.0
        # One step is one step regardless of momentum.
        assert effective_steps(1, 0.9) == pytest.approx(1.0)
        # Long runs approach tau / (1 - rho) asymptotically from below.
        assert 7.0 < effective_steps(7, 0.9) < 7.0 / (1 - 0.9)

    def test_effective_steps_validation(self):
        from repro.federated.algorithms.fednova import effective_steps

        with pytest.raises(ValueError):
            effective_steps(0, 0.9)
        with pytest.raises(ValueError):
            effective_steps(5, 1.0)

    def test_corrected_variant_differs_under_heterogeneity(self):
        from repro.federated.algorithms.base import ClientResult

        global_state = {"w": np.array([10.0])}
        results = [
            ClientResult(0, {"w": np.array([9.0])}, 1, 50, 0.0),
            ClientResult(1, {"w": np.array([6.0])}, 4, 50, 0.0),
        ]

        def aggregate(correction):
            algo = FedNova(momentum_correction=correction)
            algo._param_keys = ["w"]
            algo._buffer_keys = []
            algo._num_parties = 2
            return algo.aggregate(global_state, results, FederatedConfig())

        plain = aggregate(False)["w"]
        corrected = aggregate(True)["w"]
        assert not np.allclose(plain, corrected)

    def test_corrected_equals_plain_without_momentum(self, monkeypatch):
        from repro.federated.algorithms import fednova
        from repro.federated.algorithms.base import ClientResult

        monkeypatch.setattr(fednova, "MOMENTUM", 0.0)

        global_state = {"w": np.array([10.0])}
        results = [ClientResult(0, {"w": np.array([8.0])}, 3, 50, 0.0)]

        def aggregate(correction):
            algo = FedNova(momentum_correction=correction)
            algo._param_keys = ["w"]
            algo._buffer_keys = []
            algo._num_parties = 1
            return algo.aggregate(global_state, results, FederatedConfig())

        np.testing.assert_allclose(aggregate(False)["w"], aggregate(True)["w"])
