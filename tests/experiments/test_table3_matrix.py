"""Tests for the full Table 3 matrix API."""

import pytest

from repro.experiments.scale import SMOKE
from repro.experiments.table3 import (
    ALGORITHMS,
    TABLE3_SETTINGS,
    run_table3,
    settings_matrix,
)


class TestSettingsMatrix:
    def test_covers_all_nine_datasets(self):
        assert len(TABLE3_SETTINGS) == 9

    def test_image_datasets_have_full_partition_set(self):
        for name in ("mnist", "fmnist", "cifar10", "svhn"):
            assert "#C=3" in TABLE3_SETTINGS[name]
            assert "gau(0.1)" in TABLE3_SETTINGS[name]

    def test_tabular_skips_image_only_settings(self):
        assert "gau(0.1)" not in TABLE3_SETTINGS["adult"]

    def test_dataset_specific_rows(self):
        assert TABLE3_SETTINGS["fcube"] == ("fcube", "iid")
        assert TABLE3_SETTINGS["femnist"] == ("real-world", "iid")

    def test_full_matrix_cell_count(self):
        # 4 image datasets x 7 + 3 tabular x 4 + fcube 2 + femnist 2 = 44.
        assert len(settings_matrix()) == 44

    def test_filters(self):
        cells = settings_matrix(datasets=["mnist"], partitions=["iid", "#C=1"])
        assert cells == [("mnist", "#C=1"), ("mnist", "iid")]

    def test_unknown_dataset(self):
        with pytest.raises(KeyError):
            settings_matrix(datasets=["imagenet"])


class TestRunTable3:
    def test_small_slice_builds_leaderboard(self):
        seen = []
        board = run_table3(
            datasets=["adult"],
            partitions=["iid"],
            algorithms=("fedavg", "fedprox"),
            preset=SMOKE,
            num_trials=1,
            progress=lambda *args: seen.append(args[:3]),
        )
        assert board.settings == [("adult", "iid")]
        assert len(seen) == 2
        ranking = board.ranking("adult", "iid")
        assert {name for name, _ in ranking} == {"fedavg", "fedprox"}

    def test_default_algorithms_are_the_papers_four(self):
        assert ALGORITHMS == ("fedavg", "fedprox", "scaffold", "fednova")

    def test_rerun_against_populated_store_runs_zero_new_cells(
        self, tmp_path, monkeypatch
    ):
        from repro.experiments import scheduler as scheduler_module
        from repro.experiments.store import ResultStore

        store = ResultStore(tmp_path / "full")
        slice_kwargs = dict(
            datasets=["adult"],
            partitions=["iid"],
            algorithms=("fedavg", "fedprox"),
            preset=SMOKE,
            num_trials=1,
        )
        first = run_table3(store=store, **slice_kwargs)
        assert len(store) == 2  # one file per (algorithm, trial)

        def _boom(spec, resume=None):
            raise AssertionError("stored Table 3 cell re-ran")

        monkeypatch.setattr(scheduler_module, "run_spec", _boom)
        again = run_table3(store=store, **slice_kwargs)
        assert again.ranking("adult", "iid") == first.ranking("adult", "iid")
        # The guard is live: the same slice on an empty store hits _boom.
        with pytest.raises(RuntimeError, match="stored Table 3 cell re-ran"):
            run_table3(store=ResultStore(tmp_path / "empty"), **slice_kwargs)


class TestTable3Specs:
    def test_enumeration_matches_protocol(self):
        from repro.experiments.table3 import table3_specs

        cells = table3_specs(
            datasets=["adult"], partitions=["iid"],
            algorithms=("fedavg", "fedprox"), preset=SMOKE, num_trials=2,
        )
        assert list(cells) == [
            ("adult", "iid", "fedavg"), ("adult", "iid", "fedprox")
        ]
        for specs in cells.values():
            assert [s.seed for s in specs] == [0, 1000]
        fedprox = cells[("adult", "iid", "fedprox")][0]
        assert fedprox.algorithm.kwargs == {"mu": 0.01}


@pytest.mark.concurrent
class TestTable3Scheduled:
    def test_jobs_matches_serial_and_resumes(self, tmp_path, monkeypatch):
        from repro.experiments import scheduler as scheduler_module
        from repro.experiments.scheduler import fork_available
        from repro.experiments.store import ResultStore

        if not fork_available():
            pytest.skip("requires fork")
        slice_kwargs = dict(
            datasets=["adult"], partitions=["iid"],
            algorithms=("fedavg", "fedprox"), preset=SMOKE, num_trials=2,
        )
        serial_store = ResultStore(tmp_path / "serial")
        serial = run_table3(store=serial_store, **slice_kwargs)

        parallel_store = ResultStore(tmp_path / "parallel")
        seen = []
        parallel = run_table3(
            store=parallel_store, jobs=2,
            progress=lambda d, p, a, s: seen.append((d, p, a)),
            **slice_kwargs,
        )
        assert parallel.ranking("adult", "iid") == serial.ranking("adult", "iid")
        assert sorted(seen) == [
            ("adult", "iid", "fedavg"), ("adult", "iid", "fedprox")
        ]
        # Per-record byte identity between --jobs 1 and --jobs 4 stores.
        assert {
            p.name: p.read_bytes() for p in serial_store.root.glob("*.json")
        } == {
            p.name: p.read_bytes() for p in parallel_store.root.glob("*.json")
        }

        def _boom(spec, resume=None):
            raise AssertionError("stored Table 3 cell re-ran")

        monkeypatch.setattr(scheduler_module, "run_spec", _boom)
        again = run_table3(store=parallel_store, jobs=2, **slice_kwargs)
        assert again.ranking("adult", "iid") == serial.ranking("adult", "iid")
