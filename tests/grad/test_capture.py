"""Step capture & replay: the compiled engine must be bitwise-eager.

Replay re-runs the recorded program into the buffers its first replay
kept; these tests pin the contract down to the bit — losses, parameter updates, BN
running statistics, and inference logits must be indistinguishable from
the eager path for every registered model — and exercise the fallback
seams (ragged batches, an op kind without a kernel) where capture must
step aside.
"""

import numpy as np
import pytest

from repro.data.registry import DatasetInfo
from repro.grad import functional as F
from repro.grad import nn
from repro.grad.capture import InferenceEngine, TrainingEngine
from repro.grad.ops import Op
from repro.grad.optim import SGD
from repro.grad.tensor import Tensor, _apply
from repro.models import MODEL_NAMES, build_model

#: (input_shape, modality) fixtures small enough to step every model.
CASES = {
    "mlp": ((16,), "tabular"),
    "logistic": ((16,), "tabular"),
    "cnn": ((3, 16, 16), "image"),
    "vgg9": ((3, 16, 16), "image"),
    "resnet8": ((3, 16, 16), "image"),
    "resnet20": ((3, 16, 16), "image"),
    "resnet50": ((3, 16, 16), "image"),
}


def make_model(name, seed=0, num_classes=4):
    shape, modality = CASES[name]
    info = DatasetInfo(
        name="synthetic", modality=modality, num_classes=num_classes,
        input_shape=shape, num_train=8, num_test=4,
    )
    return build_model(name, info, seed=seed + 53)


def make_batch(name, batch_size=4, seed=0, num_classes=4):
    shape, modality = CASES[name]
    rng = np.random.default_rng(seed)
    features = rng.standard_normal((batch_size, *shape)).astype(np.float32)
    labels = rng.integers(0, num_classes, size=batch_size).astype(np.int64)
    return features, labels


def eager_step(model, optimizer, features, labels):
    optimizer.zero_grad()
    loss = F.cross_entropy(model(Tensor(features)), labels)
    loss.backward()
    optimizer.step()
    return float(loss.data)


def compiled_step(engine, optimizer, features, labels):
    optimizer.zero_grad()
    loss = engine.step(features, labels)
    optimizer.step()
    return loss


def run_steps(name, compiled, steps=3, **sgd_kwargs):
    model = make_model(name)
    model.train()
    optimizer = SGD(model.parameters(), lr=0.05, **sgd_kwargs)
    engine = TrainingEngine(model) if compiled else None
    losses = []
    for step in range(steps):
        features, labels = make_batch(name, seed=step)
        if compiled:
            loss = compiled_step(engine, optimizer, features, labels)
            assert loss is not None, f"{name}: replay fell back unexpectedly"
        else:
            loss = eager_step(model, optimizer, features, labels)
        losses.append(loss)
    if engine is not None:
        assert engine.captures == 1
        assert engine.replays == steps - 1
        assert engine.fallbacks == 0
    state = {k: np.array(v, copy=True) for k, v in model.state_dict().items()}
    return losses, state


def assert_states_equal(left, right, context=""):
    assert left.keys() == right.keys()
    for key in left:
        np.testing.assert_array_equal(left[key], right[key], err_msg=f"{context}{key}")


class TestBitwiseStep:
    """Eager and replayed training steps agree to the bit, per model."""

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_losses_and_state(self, name):
        eager_losses, eager_state = run_steps(name, compiled=False)
        replay_losses, replay_state = run_steps(name, compiled=True)
        assert eager_losses == replay_losses
        # state_dict covers parameters AND batch-norm running stats.
        assert_states_equal(eager_state, replay_state, context=f"{name}: ")

    def test_momentum_and_weight_decay(self):
        kwargs = dict(momentum=0.9)
        eager_losses, eager_state = run_steps("cnn", compiled=False, **kwargs)
        replay_losses, replay_state = run_steps("cnn", compiled=True, **kwargs)
        assert eager_losses == replay_losses
        assert_states_equal(eager_state, replay_state)


class TestOptimizerHooks:
    """FedProx/SCAFFOLD flow through the optimizer, not the program —
    the same captured step serves all four algorithms."""

    def run(self, compiled, correction_scale):
        model = make_model("mlp")
        model.train()
        optimizer = SGD(model.parameters(), lr=0.05, proximal_mu=0.01)
        anchor = [param.data.copy() for param in model.parameters()]
        optimizer.set_anchor(anchor)
        rng = np.random.default_rng(11)
        correction = [
            (correction_scale * rng.standard_normal(p.data.shape)).astype(np.float32)
            for p in model.parameters()
        ]
        optimizer.set_correction(correction, mode="step")
        engine = TrainingEngine(model) if compiled else None
        losses = []
        for step in range(3):
            features, labels = make_batch("mlp", seed=step)
            if compiled:
                losses.append(compiled_step(engine, optimizer, features, labels))
            else:
                losses.append(eager_step(model, optimizer, features, labels))
        return losses, {k: np.array(v, copy=True) for k, v in model.state_dict().items()}

    def test_proximal_and_correction_bitwise(self):
        eager_losses, eager_state = self.run(False, 0.01)
        replay_losses, replay_state = self.run(True, 0.01)
        assert eager_losses == replay_losses
        assert_states_equal(eager_state, replay_state)


class TestFallback:
    def test_ragged_batch_runs_eagerly(self):
        model = make_model("mlp")
        model.train()
        optimizer = SGD(model.parameters(), lr=0.05)
        engine = TrainingEngine(model)
        full = make_batch("mlp", batch_size=4, seed=0)
        ragged = make_batch("mlp", batch_size=3, seed=1)
        assert compiled_step(engine, optimizer, *full) is not None
        # The odd shape is not captured: the engine declines and the
        # caller's eager path takes over.
        assert engine.step(*ragged) is None
        assert engine.fallbacks == 1
        # ...and the original shape still replays afterwards.
        assert compiled_step(engine, optimizer, *full) is not None
        assert engine.replays == 1

    def test_ragged_batch_sequence_bitwise(self):
        def run(compiled):
            model = make_model("mlp")
            model.train()
            optimizer = SGD(model.parameters(), lr=0.05)
            engine = TrainingEngine(model) if compiled else None
            losses = []
            for step, batch_size in enumerate((4, 4, 3, 4)):
                features, labels = make_batch("mlp", batch_size, seed=step)
                loss = engine.step(features, labels) if compiled else None
                if loss is None:
                    optimizer.zero_grad()
                    out = F.cross_entropy(model(Tensor(features)), labels)
                    out.backward()
                    loss = float(out.data)
                optimizer.step()
                losses.append(loss)
            return losses, {
                k: np.array(v, copy=True) for k, v in model.state_dict().items()
            }

        eager_losses, eager_state = run(False)
        mixed_losses, mixed_state = run(True)
        assert eager_losses == mixed_losses
        assert_states_equal(eager_state, mixed_state)

    def test_unregistered_kind_invalidates_capture(self):
        class DoubledOp(Op):
            def forward(self, ins, meta, lead, scratch):
                return ins[0] * 2.0, None

            def backward(self, grad, ins, ctx, meta, need, lead, scratch):
                return [(grad * 2.0, True)]

        class Doubled(nn.Module):
            """An op recorded under a kind the op table has no row for."""

            def forward(self, x):
                return _apply(DoubledOp("doubled"), (x,))

        rng = np.random.default_rng(3)
        model = nn.Sequential(
            nn.Linear(16, 8, rng=rng), nn.ReLU(), Doubled(), nn.Linear(8, 4, rng=rng)
        )
        model.train()
        engine = TrainingEngine(model)
        features, labels = make_batch("mlp", seed=0)
        eager = F.cross_entropy(model(Tensor(features)), labels).item()
        # The capture attempt itself still returns the eager loss...
        assert engine.step(features, labels) == eager
        assert engine.captures == 0
        assert engine.failures == {
            ((4, 16), "float32", (4,), "int64"): "op kind 'doubled' has no capture kernel"
        }
        # ...and every later step declines so training stays eager.
        assert engine.step(features, labels) is None
        assert engine.fallbacks == 1


class TestInferenceReplay:
    def test_logits_bitwise(self):
        model = make_model("cnn")
        model.eval()
        engine = InferenceEngine(model)
        features, _ = make_batch("cnn", seed=0)
        first = np.array(engine.forward(features), copy=True)
        replayed = np.array(engine.forward(features), copy=True)
        eager = model(Tensor(features)).data
        np.testing.assert_array_equal(first, eager)
        np.testing.assert_array_equal(replayed, eager)
        assert engine.replays == 1

    def test_refreshes_params_and_buffers_after_load(self):
        # resnet8 has batch-norm: its running stats are buffer leaves that
        # must be re-read from the module on every replay.
        model = make_model("resnet8")
        model.train()
        optimizer = SGD(model.parameters(), lr=0.05)
        for step in range(2):  # dirties BN running stats
            eager_step(model, optimizer, *make_batch("resnet8", seed=step))
        model.eval()
        engine = InferenceEngine(model)
        features, _ = make_batch("resnet8", seed=7)
        engine.forward(features)  # capture at the current state
        # Train further, then reload a different state into the module.
        model.train()
        for step in range(2, 4):
            eager_step(model, optimizer, *make_batch("resnet8", seed=step))
        model.eval()
        replayed = np.array(engine.forward(features), copy=True)
        np.testing.assert_array_equal(replayed, model(Tensor(features)).data)
        assert engine.replays == 1


@pytest.mark.perf
class TestAllocations:
    def test_replay_allocates_less_than_eager(self):
        import tracemalloc

        def count_blocks(fn):
            fn()  # warm caches outside the trace
            tracemalloc.start()
            try:
                fn()
                snapshot = tracemalloc.take_snapshot()
            finally:
                tracemalloc.stop()
            return sum(stat.count for stat in snapshot.statistics("filename"))

        model = make_model("cnn")
        model.train()
        optimizer = SGD(model.parameters(), lr=0.05)
        engine = TrainingEngine(model)
        features, labels = make_batch("cnn", seed=0)
        compiled_step(engine, optimizer, features, labels)  # capture
        eager_blocks = count_blocks(
            lambda: eager_step(model, optimizer, features, labels)
        )
        replay_blocks = count_blocks(
            lambda: compiled_step(engine, optimizer, features, labels)
        )
        assert replay_blocks < eager_blocks
