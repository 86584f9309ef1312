"""Tests for the sweep API."""

import numpy as np
import pytest

from repro.experiments.scale import SMOKE, ScalePreset
from repro.experiments.sweeps import SweepResult, sweep, sweep_specs
from repro.federated.history import History, RoundRecord
from repro.spec import RunSpec

TINY = ScalePreset(
    name="sweep-test", n_train=200, n_test=100, num_rounds=2, local_epochs=1, batch_size=32
)


def epochs(*values) -> dict:
    """A one-knob ``local_epochs`` axis in the points form."""
    return {value: {"local_epochs": value} for value in values}


def history(*accuracies) -> History:
    return History([RoundRecord(i, acc, 0.0) for i, acc in enumerate(accuracies)])


class TestSweepResult:
    def make(self):
        return SweepResult({0.1: history(0.4, 0.6), 0.01: history(0.3, 0.5)})

    def test_finals(self):
        assert self.make().finals() == {0.1: 0.6, 0.01: 0.5}

    def test_curves_come_from_the_histories(self):
        curves = self.make().curves
        assert list(curves) == [0.1, 0.01]
        assert np.array_equal(curves[0.01], [0.3, 0.5])

    def test_best_value(self):
        assert self.make().best_value() == 0.1

    def test_best_value_tie_breaks_to_smallest_value(self):
        # Insertion order used to decide ties, so two sweeps over the
        # same values in different orders could name different winners.
        result = SweepResult({0.1: history(0.2, 0.6), 0.01: history(0.3, 0.6)})
        assert result.best_value() == 0.01
        reordered = SweepResult({0.01: history(0.3, 0.6), 0.1: history(0.2, 0.6)})
        assert reordered.best_value() == 0.01

    def test_best_value_tie_with_unorderable_values_keeps_order(self):
        result = SweepResult({"topk": history(0.6), 8: history(0.6)})
        assert result.best_value() == "topk"

    def test_spread(self):
        assert self.make().spread() == pytest.approx(0.1)

    def test_to_text(self):
        text = self.make().to_text()
        assert "0.1: 0.400 0.600" in text
        assert "0.01: 0.300 0.500" in text


class TestSweep:
    def test_unknown_parameter(self):
        with pytest.raises(KeyError):
            sweep({0.1: {"dropout": 0.1}}, "adult", "iid")

    def test_mu_requires_fedprox(self):
        with pytest.raises(ValueError, match="(?s)invalid RunSpec.*FedAvg"):
            sweep({0.1: {"mu": 0.1}}, "adult", "iid", algorithm="fedavg", preset=TINY)

    def test_epochs_sweep_runs(self):
        result = sweep(epochs(1, 2), "adult", "iid", preset=TINY, seed=1)
        assert set(result.curves) == {1, 2}
        for curve in result.curves.values():
            assert len(curve) == TINY.num_rounds

    def test_mu_sweep_runs(self):
        result = sweep(
            {mu: {"mu": mu} for mu in (0.0, 0.1)}, "adult", "iid",
            algorithm="fedprox", preset=TINY, seed=1,
        )
        assert set(result.curves) == {0.0, 0.1}

    def test_batch_size_sweep_changes_trajectories(self):
        result = sweep(
            {b: {"batch_size": b} for b in (8, 64)}, "adult", "dir(0.5)",
            preset=TINY, seed=1,
        )
        assert not np.allclose(result.curves[8], result.curves[64])

    def test_dotted_path_parameter(self):
        result = sweep(
            {e: {"train.local_epochs": e} for e in (1, 2)}, "adult", "iid",
            preset=TINY, seed=1,
        )
        assert set(result.curves) == {1, 2}

    def test_unknown_parameter_lists_alternatives(self):
        with pytest.raises(KeyError, match="dropout_prob"):
            sweep({0.1: {"dropout": 0.1}}, "adult", "iid", preset=TINY)

    @pytest.mark.comm
    def test_lossy_codec_costs_fewer_bytes(self):
        result = sweep(
            {
                "identity": {"codec": "identity"},
                "topk(k=0.1)": {"codec": "topk", "codec_k": 0.1},
            },
            "adult", "iid", preset=SMOKE, seed=3,
        )
        total = {
            label: history.cumulative_communication()[-1]
            for label, history in result.histories.items()
        }
        assert 0 < total["topk(k=0.1)"] < total["identity"]


class TestSweepResume:
    def test_rerun_executes_zero_new_cells(self, tmp_path, monkeypatch):
        from repro.experiments import scheduler as scheduler_module
        from repro.experiments.store import ResultStore

        store = ResultStore(tmp_path / "full")
        first = sweep(epochs(1, 2), "adult", "iid", preset=TINY, seed=1, store=store)
        assert len(store) == 2

        def _boom(spec, resume=None):
            raise AssertionError("stored sweep point re-ran")

        monkeypatch.setattr(scheduler_module, "run_spec", _boom)
        again = sweep(epochs(1, 2), "adult", "iid", preset=TINY, seed=1, store=store)
        for value in (1, 2):
            assert np.array_equal(again.curves[value], first.curves[value])
        # The guard is live: the same sweep on an empty store hits _boom.
        with pytest.raises(RuntimeError, match="stored sweep point re-ran"):
            sweep(
                epochs(1, 2), "adult", "iid", preset=TINY, seed=1,
                store=ResultStore(tmp_path / "empty"),
            )

    def test_partial_store_runs_only_missing_points(self, tmp_path):
        from repro.experiments.store import ResultStore

        store = ResultStore(tmp_path)
        sweep(epochs(1), "adult", "iid", preset=TINY, seed=1, store=store)
        assert len(store) == 1
        sweep(epochs(1, 2), "adult", "iid", preset=TINY, seed=1, store=store)
        assert len(store) == 2


class TestSweepSpecs:
    def test_enumeration_runs_nothing(self, monkeypatch):
        from repro.experiments import scheduler as scheduler_module

        def _boom(spec, resume=None):
            raise AssertionError("a cell executed")

        monkeypatch.setattr(scheduler_module, "run_spec", _boom)
        points = sweep_specs(epochs(1, 2), "adult", "iid", preset=TINY)
        assert [p.train.local_epochs for p in points.values()] == [1, 2]
        assert len({p.run_id() for p in points.values()}) == 2
        # The guard is live: running the same points hits _boom.
        with pytest.raises(RuntimeError, match="a cell executed"):
            sweep(epochs(1, 2), "adult", "iid", preset=TINY)

    def test_typo_fails_before_any_compute(self):
        with pytest.raises(KeyError, match="dropout_prob"):
            sweep_specs({0.1: {"dropout": 0.1}}, "adult", "iid", preset=TINY)

    @pytest.mark.parametrize(
        "base, point, direct",
        [
            ("fedprox", {"algorithm": "fedavg"}, {"algorithm": "fedavg"}),
            # Fig. 8's shape: a FedAvg base, a point that switches to FedProx.
            (
                "fedavg",
                {"algorithm": "fedprox", "mu": 0.01},
                {"algorithm": "fedprox", "algorithm_kwargs": {"mu": 0.01}},
            ),
            ("fedprox", {"mu": 0.0}, {"algorithm_kwargs": {"mu": 0.0}}),
            (
                "fedprox",
                {"algorithm_kwargs": {"mu": 1.0}},
                {"algorithm_kwargs": {"mu": 1.0}},
            ),
            ("fedavg", {"local_epochs": 8}, {"local_epochs": 8}),
            ("fedprox", {"partition": "#C=1"}, {"partition": "#C=1"}),
            (
                "fedprox",
                {"partition": "iid", "algorithm": "scaffold", "local_epochs": 4},
                {"partition": "iid", "algorithm": "scaffold", "local_epochs": 4},
            ),
        ],
    )
    def test_point_enumerates_the_direct_build(self, base, point, direct):
        # The figure benches moved from one direct build per cell to
        # points on a shared base; their run_ids (store keys) must not move.
        cell = dict(dataset="cifar10", partition="dir(0.5)", algorithm=base)
        [spec] = sweep_specs({"p": point}, **cell, preset=TINY, seed=5).values()
        expected = RunSpec.build(**{**cell, **direct}, preset=TINY, seed=5)
        assert spec.run_id() == expected.run_id()
