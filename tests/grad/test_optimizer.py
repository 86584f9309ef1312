"""Compiled replay end to end: bitwise-identical to eager execution.

The reference is eager execution, the same one the ``test_compile``
matrix uses: for each model under each algorithm, a federated run on the
compiled programs, whose records keep their buffers across replays,
produces the same ``History`` and global weights, bit for bit, as the
eager run, including under the stacked executor, update codecs, fault
injection, and across a checkpoint/resume boundary.  Program-level
differentials per op kind live in ``test_op_table.py``.
"""

import numpy as np
import pytest

from repro.data import ArrayDataset
from repro.data.registry import DatasetInfo
from repro.federated import (
    FedAvg,
    FedNova,
    FedProx,
    FederatedConfig,
    FederatedServer,
    Scaffold,
    make_clients,
)
from repro.models import build_model
from repro.partition import HomogeneousPartitioner

pytestmark = pytest.mark.capture

CASES = {
    "mlp": ((16,), "tabular"),
    "cnn": ((3, 16, 16), "image"),
}

ALGORITHMS = {
    "fedavg": FedAvg,
    "fedprox": lambda: FedProx(mu=0.01),
    "scaffold": Scaffold,
    "fednova": FedNova,
}


def tiny_dataset(name, n, seed=0, num_classes=4):
    shape, _ = CASES[name]
    rng = np.random.default_rng(seed)
    features = rng.standard_normal((n, *shape)).astype(np.float32)
    labels = rng.integers(0, num_classes, size=n).astype(np.int64)
    return ArrayDataset(features, labels)


def make_server(name, algorithm, compile, parties=2, **config_overrides):
    shape, modality = CASES[name]
    n = 16
    info = DatasetInfo(
        name="synthetic", modality=modality, num_classes=4,
        input_shape=shape, num_train=n, num_test=n,
    )
    train = tiny_dataset(name, n)
    partition = HomogeneousPartitioner().partition(
        train, parties, np.random.default_rng(0)
    )
    defaults = dict(
        num_rounds=2, local_epochs=1, batch_size=4, lr=0.05,
        seed=17, compile=compile,
    )
    defaults.update(config_overrides)
    config = FederatedConfig(**defaults)
    clients = make_clients(partition, train, seed=config.seed)
    model = build_model(name, info, seed=61)
    server = FederatedServer(
        model, algorithm(), clients, config, test_dataset=train
    )
    return server, config.num_rounds


def run(name, algorithm, compile, **config_overrides):
    server, rounds = make_server(name, algorithm, compile, **config_overrides)
    with server:
        server.fit(rounds)
    history = [record.to_dict() for record in server.history.records]
    state = {k: np.array(v, copy=True) for k, v in server.global_state.items()}
    return history, state


def assert_runs_bitwise(name, algorithm, eager=None, **config_overrides):
    """Compiled run vs the eager run of the same config
    (``eager`` overrides what the eager reference must not share)."""
    on_history, on_state = run(name, algorithm, True, **config_overrides)
    off_history, off_state = run(
        name, algorithm, False, **{**config_overrides, **(eager or {})}
    )
    assert on_history == off_history
    assert on_state.keys() == off_state.keys()
    for key in on_state:
        np.testing.assert_array_equal(
            on_state[key], off_state[key], err_msg=f"{name}: {key}"
        )


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_optimizer_bitwise(name, algorithm):
    assert_runs_bitwise(name, ALGORITHMS[algorithm])


@pytest.mark.stacked
def test_optimizer_bitwise_stacked():
    assert_runs_bitwise(
        "mlp", FedAvg, parties=6, executor="stacked", stack_size=4,
        eager={"executor": "serial"},
    )


@pytest.mark.comm
@pytest.mark.parametrize("codec_kwargs", [
    dict(codec="qsgd", codec_bits=6),
    dict(codec="topk", codec_k=0.5),
])
def test_optimizer_bitwise_codec(codec_kwargs):
    assert_runs_bitwise("mlp", FedAvg, **codec_kwargs)


@pytest.mark.faults
def test_optimizer_bitwise_faults():
    assert_runs_bitwise(
        "mlp", FedAvg, parties=4, num_rounds=3, dropout_prob=0.5
    )


class TestResume:
    """Compiled checkpoint/resume stays bitwise with both the
    uninterrupted compiled run and the eager run."""

    @staticmethod
    def make(compile=True):
        server, _ = make_server("mlp", FedAvg, compile, num_rounds=4)
        return server

    @staticmethod
    def collect(server):
        return (
            [record.to_dict() for record in server.history.records],
            {k: np.array(v, copy=True) for k, v in server.global_state.items()},
        )

    def test_resume_bitwise(self, tmp_path):
        path = str(tmp_path / "compiled.ckpt")
        with self.make() as straight:
            straight.fit(4)
        with self.make() as first:
            first.fit(2)
            first.save_checkpoint(path)
        with self.make() as second:
            second.resume(path)
            second.fit(2)
        with self.make(compile=False) as plain:
            plain.fit(4)
        straight_history, straight_state = self.collect(straight)
        resumed_history, resumed_state = self.collect(second)
        plain_history, plain_state = self.collect(plain)
        assert straight_history == resumed_history == plain_history
        for key in straight_state:
            np.testing.assert_array_equal(
                straight_state[key], resumed_state[key], err_msg=key
            )
            np.testing.assert_array_equal(
                straight_state[key], plain_state[key], err_msg=key
            )
