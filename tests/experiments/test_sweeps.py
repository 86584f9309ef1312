"""Tests for the hyper-parameter sweep API."""

import numpy as np
import pytest

from repro.experiments.scale import ScalePreset
from repro.experiments.sweeps import SweepResult, sweep

TINY = ScalePreset(
    name="sweep-test", n_train=200, n_test=100, num_rounds=2, local_epochs=1, batch_size=32
)


class TestSweepResult:
    def make(self):
        result = SweepResult(parameter="lr")
        result.curves[0.1] = np.array([0.4, 0.6])
        result.curves[0.01] = np.array([0.3, 0.5])
        return result

    def test_finals(self):
        assert self.make().finals() == {0.1: 0.6, 0.01: 0.5}

    def test_best_value(self):
        assert self.make().best_value() == 0.1

    def test_best_value_tie_breaks_to_smallest_value(self):
        # Insertion order used to decide ties, so two sweeps over the
        # same values in different orders could name different winners.
        result = SweepResult(parameter="lr")
        result.curves[0.1] = np.array([0.2, 0.6])
        result.curves[0.01] = np.array([0.3, 0.6])
        assert result.best_value() == 0.01
        reordered = SweepResult(parameter="lr")
        reordered.curves[0.01] = np.array([0.3, 0.6])
        reordered.curves[0.1] = np.array([0.2, 0.6])
        assert reordered.best_value() == 0.01

    def test_best_value_tie_with_unorderable_values_keeps_order(self):
        result = SweepResult(parameter="codec")
        result.curves["topk"] = np.array([0.6])
        result.curves[8] = np.array([0.6])
        assert result.best_value() == "topk"

    def test_spread(self):
        assert self.make().spread() == pytest.approx(0.1)

    def test_to_text(self):
        text = self.make().to_text()
        assert "sweep over lr" in text
        assert "lr=0.1" in text


class TestSweep:
    def test_unknown_parameter(self):
        with pytest.raises(KeyError):
            sweep("dropout", [0.1], "adult", "iid")

    def test_mu_requires_fedprox(self):
        with pytest.raises(ValueError):
            sweep("mu", [0.1], "adult", "iid", algorithm="fedavg")

    def test_epochs_sweep_runs(self):
        result = sweep(
            "local_epochs", [1, 2], "adult", "iid", preset=TINY, seed=1
        )
        assert set(result.curves) == {1, 2}
        for curve in result.curves.values():
            assert len(curve) == TINY.num_rounds

    def test_mu_sweep_runs(self):
        result = sweep(
            "mu", [0.0, 0.1], "adult", "iid", algorithm="fedprox", preset=TINY, seed=1
        )
        assert set(result.curves) == {0.0, 0.1}

    def test_batch_size_sweep_changes_trajectories(self):
        result = sweep("batch_size", [8, 64], "adult", "dir(0.5)", preset=TINY, seed=1)
        assert not np.allclose(result.curves[8], result.curves[64])

    def test_dotted_path_parameter(self):
        result = sweep("train.local_epochs", [1, 2], "adult", "iid", preset=TINY, seed=1)
        assert set(result.curves) == {1, 2}

    def test_unknown_parameter_lists_alternatives(self):
        with pytest.raises(KeyError, match="dropout_prob"):
            sweep("dropout", [0.1], "adult", "iid", preset=TINY)


class TestSweepResume:
    def test_rerun_executes_zero_new_cells(self, tmp_path, monkeypatch):
        from repro.experiments import scheduler as scheduler_module
        from repro.experiments.store import ResultStore

        store = ResultStore(tmp_path / "full")
        first = sweep(
            "local_epochs", [1, 2], "adult", "iid", preset=TINY, seed=1, store=store
        )
        assert len(store) == 2

        def _boom(spec, resume=None):
            raise AssertionError("stored sweep point re-ran")

        monkeypatch.setattr(scheduler_module, "run_spec", _boom)
        again = sweep(
            "local_epochs", [1, 2], "adult", "iid", preset=TINY, seed=1, store=store
        )
        for value in (1, 2):
            assert np.array_equal(again.curves[value], first.curves[value])
        # The guard is live: the same sweep on an empty store hits _boom.
        with pytest.raises(RuntimeError, match="stored sweep point re-ran"):
            sweep(
                "local_epochs", [1, 2], "adult", "iid", preset=TINY, seed=1,
                store=ResultStore(tmp_path / "empty"),
            )

    def test_partial_store_runs_only_missing_points(self, tmp_path):
        from repro.experiments.store import ResultStore

        store = ResultStore(tmp_path)
        sweep("local_epochs", [1], "adult", "iid", preset=TINY, seed=1, store=store)
        assert len(store) == 1
        sweep("local_epochs", [1, 2], "adult", "iid", preset=TINY, seed=1, store=store)
        assert len(store) == 2


class TestSweepSpecs:
    def test_enumeration_runs_nothing(self, monkeypatch):
        from repro.experiments import scheduler as scheduler_module
        from repro.experiments.sweeps import sweep_specs

        def _boom(spec, resume=None):
            raise AssertionError("a cell executed")

        monkeypatch.setattr(scheduler_module, "run_spec", _boom)
        points = sweep_specs("local_epochs", [1, 2], "adult", "iid", preset=TINY)
        assert [p.train.local_epochs for p in points.values()] == [1, 2]
        assert len({p.run_id() for p in points.values()}) == 2
        # The guard is live: running the same points hits _boom.
        with pytest.raises(RuntimeError, match="a cell executed"):
            sweep("local_epochs", [1, 2], "adult", "iid", preset=TINY)

    def test_typo_fails_before_any_compute(self):
        from repro.experiments.sweeps import sweep_specs

        with pytest.raises(KeyError, match="dropout_prob"):
            sweep_specs("dropout", [0.1], "adult", "iid", preset=TINY)
