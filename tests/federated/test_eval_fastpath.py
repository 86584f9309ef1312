"""Fused single-pass evaluation: one forward per test batch, counted.

The server previously paid two full passes over the test set per round
(accuracy, then loss).  ``evaluate`` fuses them; these tests verify the
fusion by *counting model forwards*, check the fused numbers are bitwise
what the two independent passes produce, and pin the per-party path to a
single eval-mode toggle and one shared inference program.
"""

from types import SimpleNamespace

import numpy as np

from repro.data import ArrayDataset
from repro.data.loader import DataLoader
from repro.federated.evaluation import (
    EvalResult,
    evaluate,
    evaluate_per_party,
)
from repro.grad import functional as F
from repro.grad import nn
from repro.grad.capture import inference_engine
from repro.grad.tensor import Tensor, no_grad


class CountingModel(nn.Sequential):
    """Sequential that counts forwards and train/eval toggles."""

    def __init__(self, *modules):
        super().__init__(*modules)
        self.num_forwards = 0
        self.num_toggles = 0

    def forward(self, x):
        self.num_forwards += 1
        return super().forward(x)

    def train(self, mode=True):
        self.num_toggles += 1
        return super().train(mode)


def make_model():
    rng = np.random.default_rng(4)
    return CountingModel(
        nn.Linear(8, 12, rng=rng), nn.ReLU(), nn.Linear(12, 3, rng=rng)
    )


def make_dataset(n=40, seed=1):
    rng = np.random.default_rng(seed)
    features = rng.standard_normal((n, 8)).astype(np.float32)
    labels = rng.integers(0, 3, size=n).astype(np.int64)
    return ArrayDataset(features, labels)


class TestFusedPass:
    def test_matches_independent_passes_bitwise(self):
        model = make_model()
        dataset = make_dataset()
        result = evaluate(model, dataset, batch_size=16)
        assert isinstance(result, EvalResult)
        # Reference: separate accuracy and loss passes, straight off the
        # eager forward (what the server used to run twice per round).
        model.eval()
        correct = 0
        loss_sum = 0.0
        with no_grad():
            for features, labels in DataLoader(dataset, 16):
                logits = model(Tensor(features))
                correct += int((logits.data.argmax(axis=1) == labels).sum())
                loss_sum += float(
                    F.cross_entropy(logits, labels, reduction="sum").data
                )
        assert result.accuracy == correct / len(dataset)
        assert result.loss == loss_sum / len(dataset)
        assert result.num_samples == len(dataset)

    def test_wrappers_agree_with_fused_result(self):
        model = make_model()
        dataset = make_dataset()
        result = evaluate(model, dataset, batch_size=16)
        again = evaluate(model, dataset, batch_size=16)
        assert again.accuracy == result.accuracy
        assert again.loss == result.loss
        party = SimpleNamespace(dataset=dataset)
        per_party = evaluate_per_party(model, [party], batch_size=16)
        assert per_party.tolist() == [result.accuracy]

    def test_exactly_one_forward_per_batch(self):
        model = make_model()
        dataset = make_dataset(n=40)  # 16 + 16 + 8: three batches
        evaluate(model, dataset, batch_size=16)
        assert model.num_forwards == 3

    def test_restores_training_mode(self):
        model = make_model()
        model.train()
        evaluate(model, make_dataset(), batch_size=16)
        assert model.training
        model.eval()
        evaluate(model, make_dataset(), batch_size=16)
        assert not model.training


class TestCompiledEval:
    def test_replays_full_batches_eagerly_runs_ragged_tail(self):
        model = make_model()
        dataset = make_dataset(n=40)  # 2 full batches + 1 ragged per pass
        first = evaluate(model, dataset, batch_size=16, compiled=True)
        second = evaluate(model, dataset, batch_size=16, compiled=True)
        assert first == second
        engine = inference_engine(model)
        assert engine.captures == 1
        # Pass one: capture + replay + eager tail; pass two: 2 replays +
        # eager tail.  Eager forwards: 1 capture + 2 ragged tails.
        assert engine.replays == 3
        assert model.num_forwards == 3

    def test_compiled_matches_eager_bitwise(self):
        model = make_model()
        dataset = make_dataset(n=40)
        eager = evaluate(model, dataset, batch_size=16)
        compiled = evaluate(model, dataset, batch_size=16, compiled=True)
        assert eager == compiled


class TestPerParty:
    @staticmethod
    def make_parties(sizes, seed=9):
        return [
            SimpleNamespace(dataset=make_dataset(n=size, seed=seed + i))
            for i, size in enumerate(sizes)
        ]

    def test_single_eval_toggle_for_all_parties(self):
        model = make_model()
        model.train()
        model.num_toggles = 0
        parties = self.make_parties([32, 32, 32])
        evaluate_per_party(model, parties, batch_size=16)
        # One eval() entering the loop, one train() restoring afterwards —
        # not a pair per party.
        assert model.num_toggles == 2
        assert model.training

    def test_parties_share_one_inference_program(self):
        model = make_model()
        parties = self.make_parties([32, 32, 32])  # full batches only
        accuracies = evaluate_per_party(model, parties, batch_size=16, compiled=True)
        engine = inference_engine(model)
        assert engine.captures == 1
        assert engine.replays == 5  # 6 batches total, first one captures
        np.testing.assert_array_equal(
            accuracies, evaluate_per_party(model, parties, batch_size=16)
        )
