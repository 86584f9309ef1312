"""Program optimizer: bitwise-identity and planner-safety guarantees.

The optimizer (arena coloring, constant interning) must be invisible in
every observable number.  End to end the reference is eager execution —
the same one the ``test_compile`` matrix uses: for each model under each
algorithm, a federated run on the optimized compiled programs produces
the same ``History`` and global weights, bit for bit, as the eager run —
including under the stacked executor, update codecs, fault injection,
and across a checkpoint/resume boundary.  At the program level the
reference is the capture engines' own ``optimize=False`` compile.  The
synthetic tests pin the safety argument itself: the planner never lands
two live buffers on the same block.
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
from repro.grad import capture, nn
from repro.grad import functional as F
from repro.grad import tensor as tensor_mod
from repro.grad.tensor import Tensor
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
    """Optimized compiled run vs the eager run of the same config
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
    """Optimizer-on checkpoint/resume stays bitwise with both the
    uninterrupted optimized run and the eager run."""

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
        path = str(tmp_path / "optimized.ckpt")
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


# -- synthetic programs ----------------------------------------------------


def compile_program(model, features, labels, optimize=True, transform=None):
    """Capture one training step and return (compiler, program)."""
    tape = capture.Tape()
    x = Tensor(features)
    previous = tensor_mod._set_tape(tape)
    try:
        inp = x if transform is None else transform(x)
        logits = model(inp)
        loss = F.cross_entropy(logits, labels)
    finally:
        tensor_mod._set_tape(previous)
    assert tape.failed is None, tape.failed
    compiler = capture._Compiler(tape, x, loss, labels, optimize=optimize)
    program = compiler.compile(with_backward=True)
    return compiler, program


def small_model(seed=3):
    rng = np.random.default_rng(seed)
    return nn.Sequential(
        nn.Linear(8, 12, rng=rng), nn.ReLU(), nn.Linear(12, 4, rng=rng)
    )


def batch(seed=11, n=6, d=8, classes=4):
    rng = np.random.default_rng(seed)
    features = rng.standard_normal((n, d)).astype(np.float32)
    labels = rng.integers(0, classes, size=n).astype(np.int64)
    return features, labels


def conv_model_and_batch(seed=9):
    shape, modality = CASES["cnn"]
    info = DatasetInfo(
        name="synthetic", modality=modality, num_classes=4,
        input_shape=shape, num_train=8, num_test=8,
    )
    model = build_model("cnn", info, seed=seed)
    rng = np.random.default_rng(seed + 1)
    features = rng.standard_normal((4, *shape)).astype(np.float32)
    labels = rng.integers(0, 4, size=4).astype(np.int64)
    return model, features, labels


@pytest.mark.parametrize("make", ["mlp", "cnn"])
def test_planner_never_aliases_live_reader(make):
    """No two tenants of one block have overlapping live intervals,
    except the declared may_alias in-place overlay at the boundary."""
    if make == "mlp":
        model, (features, labels) = small_model(), batch()
    else:
        model, features, labels = conv_model_and_batch()
    compiler, _ = compile_program(model, features, labels)
    planner = compiler._planner
    assert planner is not None and planner.planned
    assert planner.blocks, "optimizer produced no arena blocks"
    shared = 0
    for block in planner.blocks:
        tenants = block["tenants"]
        shared += len(tenants) - 1
        running_last = tenants[0].last
        top = tenants[0]
        for alloc in tenants[1:]:
            disjoint = running_last < alloc.birth
            overlay = (
                alloc.may_alias
                and running_last == alloc.birth
                and top.last == alloc.birth
                and top.shape == alloc.shape
                and top.dtype == alloc.dtype
                and top.strides == alloc.strides
            )
            assert disjoint or overlay, (
                f"tenant born at {alloc.birth} overlaps a block live "
                f"through {running_last}"
            )
            running_last = max(running_last, alloc.last)
            top = alloc
    assert shared > 0, "planner never reused a block"


def test_planner_rejects_live_overlap_even_with_may_alias():
    """may_alias alone is not enough: a reader past the birth step keeps
    the block occupied, so the request must go to fresh storage."""
    planner = capture._ArenaPlanner()
    planner.define(0, (4, 4), np.float32, step=0, may_alias=True)
    planner.read(0, 5)  # slot 0 stays live through step 5
    planner.define(1, (4, 4), np.float32, step=3, may_alias=True)
    planner.read(1, 4)
    planner.plan()
    a0, a1 = planner.allocs
    assert a0.buffer.__array_interface__["data"][0] != (
        a1.buffer.__array_interface__["data"][0]
    ), "planner aliased a buffer with a live reader"
    # The legal boundary overlay *is* shared storage.
    planner = capture._ArenaPlanner()
    planner.define(0, (4, 4), np.float32, step=0, may_alias=True)
    planner.read(0, 3)
    planner.define(1, (4, 4), np.float32, step=3, may_alias=True)
    planner.plan()
    a0, a1 = planner.allocs
    assert a0.buffer.__array_interface__["data"][0] == (
        a1.buffer.__array_interface__["data"][0]
    )


def grads_of(model, program, features, labels):
    loss = program.replay_step(features, labels)
    return loss, [np.array(p.grad, copy=True) for p in model.parameters()]


def test_replay_bitwise_over_steps():
    """Repeated replays through the shared arena match the unoptimized
    program step for step (fresh params each replay, like a trainer)."""
    model = small_model()
    features, labels = batch()
    _, prog_off = compile_program(model, features, labels, optimize=False)
    _, prog_on = compile_program(model, features, labels, optimize=True)
    for step in range(3):
        fresh, _ = batch(seed=20 + step)
        loss_off, grads_off = grads_of(model, prog_off, fresh, labels)
        loss_on, grads_on = grads_of(model, prog_on, fresh, labels)
        assert loss_on == loss_off, step
        for got, want in zip(grads_on, grads_off):
            np.testing.assert_array_equal(got, want)


def test_arena_stats_report_real_savings():
    model, features, labels = conv_model_and_batch()
    _, program = compile_program(model, features, labels)
    stats = program.stats
    assert stats.peak_bytes > 0
    assert stats.peak_bytes < stats.unplanned_bytes
    assert stats.slots_after < stats.slots_before
    assert 0.0 < stats.reduction < 1.0
    payload = stats.to_dict()
    assert payload["peak_bytes"] == stats.peak_bytes
    assert payload["reduction"] == pytest.approx(stats.reduction, abs=1e-3)


def test_constants_interned_across_programs():
    """Identical small constants are shared, by identity, across
    independently compiled programs."""
    features, labels = batch()
    scale = np.full(features.shape, 0.5, dtype=np.float32)
    weigh = lambda x: x * Tensor(scale.copy())  # noqa: E731
    _, first = compile_program(
        small_model(seed=3), features, labels, transform=weigh
    )
    _, second = compile_program(
        small_model(seed=4), features, labels, transform=weigh
    )
    assert second.stats.constants_interned > 0
    pooled_first = [
        value for value in first.arena
        if isinstance(value, np.ndarray) and not value.flags.writeable
    ]
    pooled_second = [
        value for value in second.arena
        if isinstance(value, np.ndarray) and not value.flags.writeable
    ]
    assert any(
        a is b for a in pooled_first for b in pooled_second
    ), "no constant object shared between the two programs"


def test_no_optimize_reproduces_dedicated_buffers():
    """``optimize=False`` is the planner's reference: no planner, no
    sharing — the stats report one dedicated buffer per slot."""
    model = small_model()
    features, labels = batch()
    compiler, program = compile_program(
        model, features, labels, optimize=False
    )
    assert compiler._planner is None
    stats = program.stats
    assert stats.peak_bytes == stats.unplanned_bytes
    assert stats.slots_after == stats.slots_before
    assert stats.reduction == 0.0
