"""Checkpoint/resume: a resumed run must be bitwise identical to the
uninterrupted one — global state, history, and every generator schedule."""

import os
import pickle

import numpy as np
import pytest

from repro.data import ArrayDataset
from repro.federated import (
    FedAvg,
    FedOpt,
    FederatedConfig,
    FederatedServer,
    Scaffold,
    make_clients,
)
from repro.federated.server import CHECKPOINT_FORMAT
from repro.grad import nn
from repro.partition import HomogeneousPartitioner

pytestmark = pytest.mark.faults


def toy_dataset(seed=3, n=240, dim=5, classes=3):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((dim, classes)).astype(np.float32)
    x = rng.standard_normal((n, dim)).astype(np.float32)
    return ArrayDataset(x, (x @ w).argmax(axis=1).astype(np.int64))


def make_server(algorithm=None, num_parties=6, **config_kwargs):
    train = toy_dataset()
    part = HomogeneousPartitioner().partition(
        train, num_parties, np.random.default_rng(0)
    )
    defaults = dict(
        num_rounds=6, local_epochs=1, batch_size=16, lr=0.05,
        seed=23,
    )
    defaults.update(config_kwargs)
    config = FederatedConfig(**defaults)
    clients = make_clients(part, train, seed=config.seed)
    rng = np.random.default_rng(1)
    model = nn.Sequential(
        nn.Linear(5, 16, rng=rng), nn.ReLU(), nn.Linear(16, 3, rng=rng)
    )
    return FederatedServer(
        model, algorithm or FedAvg(), clients, config, test_dataset=train
    )


def assert_bitwise_equal(uninterrupted, resumed):
    assert [r.to_dict() for r in uninterrupted.history.records] == [
        r.to_dict() for r in resumed.history.records
    ]
    for key in uninterrupted.global_state:
        np.testing.assert_array_equal(
            uninterrupted.global_state[key], resumed.global_state[key], err_msg=key
        )
    for left, right in zip(uninterrupted.clients, resumed.clients):
        assert left.rng.bit_generator.state == right.rng.bit_generator.state


def roundtrip(tmp_path, make, split=3, total=6):
    """Run ``total`` rounds straight, and again with a save/load at ``split``."""
    path = str(tmp_path / "run.ckpt")
    straight = make()
    with straight:
        straight.fit(total)
    first = make()
    with first:
        first.fit(split)
        first.save_checkpoint(path)
    second = make()
    with second:
        second.resume(path)
        assert len(second.history) == split
        second.fit(total - split)
    assert_bitwise_equal(straight, second)
    return straight, second


class TestResumeBitwise:
    def test_fedavg_serial(self, tmp_path):
        roundtrip(tmp_path, make_server)

    def test_with_sampling_and_dropout(self, tmp_path):
        # The sampler generator and the pure fault schedule must both
        # survive the checkpoint: sampled/dropped sets line up per round.
        roundtrip(
            tmp_path,
            lambda: make_server(sample_fraction=0.5, dropout_prob=0.3),
        )

    def test_scaffold_control_variates(self, tmp_path):
        straight, resumed = roundtrip(tmp_path, lambda: make_server(Scaffold()))
        for left, right in zip(
            straight.algorithm.server_control, resumed.algorithm.server_control
        ):
            np.testing.assert_array_equal(left, right)

    def test_fedopt_moments(self, tmp_path):
        roundtrip(tmp_path, lambda: make_server(FedOpt(variant="adam")))

    def test_topk_error_feedback_residuals(self, tmp_path):
        # topk keeps per-party residuals in client.state and incremental
        # broadcast state in the channel; both must round-trip.
        roundtrip(
            tmp_path,
            lambda: make_server(codec="topk", codec_k=0.25),
        )

    def test_qsgd_downlink_rng(self, tmp_path):
        roundtrip(
            tmp_path,
            lambda: make_server(codec="qsgd", codec_bits=4),
        )


class TestPeriodicCheckpoint:
    def test_autosave_during_fit(self, tmp_path):
        path = str(tmp_path / "auto.ckpt")
        server = make_server(checkpoint_every=2, checkpoint_path=path)
        server.fit(3)
        payload = pickle.loads(open(path, "rb").read())
        assert payload["rounds_completed"] == 2  # last multiple of 2
        # no stray temp file left behind
        assert not os.path.exists(path + ".tmp")
        # resuming the autosave continues to the same end state
        straight = make_server()
        straight.fit(6)
        resumed = make_server(checkpoint_every=2, checkpoint_path=path)
        resumed.resume(path)
        resumed.fit(4)
        assert_bitwise_equal(straight, resumed)


class TestValidation:
    def test_algorithm_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / "run.ckpt")
        server = make_server(Scaffold())
        server.fit(1)
        server.save_checkpoint(path)
        other = make_server(FedAvg())
        with pytest.raises(ValueError, match="algorithm"):
            other.resume(path)

    def test_party_count_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / "run.ckpt")
        server = make_server(num_parties=6)
        server.fit(1)
        server.save_checkpoint(path)
        other = make_server(num_parties=4)
        with pytest.raises(ValueError, match="parties"):
            other.resume(path)

    def test_unknown_format_rejected(self, tmp_path):
        path = str(tmp_path / "bad.ckpt")
        with open(path, "wb") as handle:
            pickle.dump({"format": CHECKPOINT_FORMAT + 1}, handle)
        with pytest.raises(ValueError, match="format"):
            make_server().resume(path)

    def test_model_keys_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / "run.ckpt")
        server = make_server()
        server.fit(1)
        server.save_checkpoint(path)
        train = toy_dataset()
        part = HomogeneousPartitioner().partition(
            train, 6, np.random.default_rng(0)
        )
        clients = make_clients(part, train, seed=23)
        different = nn.Sequential(nn.Linear(5, 3, rng=np.random.default_rng(1)))
        other = FederatedServer(
            different, FedAvg(), clients,
            FederatedConfig(num_rounds=6, local_epochs=1, batch_size=16, seed=23),
        )
        with pytest.raises(ValueError, match="keys"):
            other.resume(path)
