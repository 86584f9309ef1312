"""Tests for the experiment result store."""

import json

import pytest

from repro.experiments import run_federated_experiment
from repro.experiments.scale import SMOKE
from repro.experiments.store import ResultStore, StoreWarning, outcome_to_dict


@pytest.fixture(scope="module")
def outcome():
    return run_federated_experiment("adult", "iid", "fedavg", preset=SMOKE, seed=1)


class TestOutcomeSerialization:
    def test_fields_present(self, outcome):
        data = outcome_to_dict(outcome)
        assert data["dataset"] == "adult"
        assert data["algorithm"] == "fedavg"
        assert data["config"]["num_rounds"] == SMOKE.num_rounds
        assert len(data["history"]["records"]) == SMOKE.num_rounds
        assert sum(data["party_sizes"]) <= SMOKE.n_train

    def test_json_roundtrippable(self, outcome):
        import json

        text = json.dumps(outcome_to_dict(outcome))
        assert json.loads(text)["final_accuracy"] == outcome.final_accuracy


class TestResultStore:
    def test_save_and_count(self, outcome, tmp_path):
        store = ResultStore(tmp_path / "runs")
        path = store.save(outcome)
        assert path.exists()
        assert len(store) == 1

    def test_save_same_key_overwrites(self, outcome, tmp_path):
        store = ResultStore(tmp_path)
        store.save(outcome)
        store.save(outcome)
        assert len(store) == 1

    def test_query_filters(self, outcome, tmp_path):
        store = ResultStore(tmp_path)
        store.save(outcome)
        assert len(store.query(dataset="adult")) == 1
        assert len(store.query(dataset="mnist")) == 0
        assert len(store.query(algorithm="fedavg", partition="homogeneous")) == 1

    def test_leaderboard_aggregates_seeds(self, tmp_path):
        store = ResultStore(tmp_path)
        for seed in (1, 2):
            out = run_federated_experiment(
                "adult", "iid", "fedavg", preset=SMOKE, seed=seed
            )
            store.save(out)
        board = store.leaderboard()
        assert board.settings == [("adult", "homogeneous")]
        ranking = board.ranking("adult", "homogeneous")
        assert ranking[0][0] == "fedavg"
        # Both seeds accumulated as trials.
        entries = store.query(algorithm="fedavg")
        assert len(entries) == 2

    def test_histories_reload_with_measured_bytes(self, outcome, tmp_path):
        store = ResultStore(tmp_path)
        store.save(outcome)
        (history,) = store.histories(dataset="adult")
        assert [r.to_dict() for r in history.records] == [
            r.to_dict() for r in outcome.history.records
        ]
        assert (
            history.cumulative_communication()[-1]
            == outcome.history.cumulative_communication()[-1]
        )

    def test_codec_config_persisted(self, outcome, tmp_path):
        store = ResultStore(tmp_path)
        store.save(outcome)
        config = store.records()[0]["config"]
        assert config["codec"] == "identity"
        assert config["codec_bits"] == 8
        assert config["codec_k"] == 0.1

    def test_partition_names_sanitized(self, tmp_path):
        store = ResultStore(tmp_path)
        out = run_federated_experiment("adult", "dir(0.5)", "fedavg", preset=SMOKE, seed=1)
        path = store.save(out)
        assert "(" not in path.name
        assert "~" not in path.name


class TestContentAddressing:
    """Files are keyed by run_id, so *any* scientific field separates runs."""

    def test_codec_variants_do_not_collide(self, tmp_path):
        # The old (dataset, partition, algorithm, seed) filename scheme
        # silently overwrote one of these two runs.
        store = ResultStore(tmp_path)
        plain = run_federated_experiment("adult", "iid", "fedavg", preset=SMOKE, seed=1)
        compressed = run_federated_experiment(
            "adult", "iid", "fedavg", preset=SMOKE, seed=1, codec="float16"
        )
        store.save(plain)
        store.save(compressed)
        assert len(store) == 2

    def test_filename_carries_run_id(self, outcome, tmp_path):
        store = ResultStore(tmp_path)
        path = store.save(outcome)
        assert outcome.spec.run_id() in path.name
        assert path.name.startswith("adult__fedavg__")

    def test_completed_and_get(self, outcome, tmp_path):
        store = ResultStore(tmp_path)
        assert not store.completed(outcome.spec)
        store.save(outcome)
        assert store.completed(outcome.spec)
        record = store.get(outcome.spec)
        assert record["final_accuracy"] == outcome.final_accuracy
        assert record["run_id"] == outcome.spec.run_id()

    def test_completed_ignores_exec_settings(self, outcome, tmp_path):
        # A serially-computed result satisfies a parallel run's lookup.
        store = ResultStore(tmp_path)
        store.save(outcome)
        parallel = outcome.spec.with_overrides(executor="process", num_workers=4)
        assert store.completed(parallel)

    def test_get_falls_back_to_embedded_run_id(self, outcome, tmp_path):
        # A record copied in under another prefix is still found by its
        # run_id suffix, and accepted on the run_id it embeds.
        store = ResultStore(tmp_path)
        path = store.save(outcome)
        run_id = outcome.spec.run_id()
        copied = path.with_name(f"copied__elsewhere__{run_id}.json")
        path.rename(copied)
        assert store.completed(outcome.spec)
        # The suffix alone is not trusted: the embedded run_id must agree.
        record = json.loads(copied.read_text())
        record["run_id"] = "0" * 16
        copied.write_text(json.dumps(record))
        assert not store.completed(outcome.spec)

    def test_record_without_run_id_suffix_is_invisible_to_get(
        self, outcome, tmp_path
    ):
        # Lookups go by the filename's run_id suffix alone: they never
        # open a file whose name does not end in the run_id.
        store = ResultStore(tmp_path)
        path = store.save(outcome)
        path.rename(path.with_name("renamed-by-hand.json"))
        assert not store.completed(outcome.spec)
        assert len(store.records()) == 1  # analysis surfaces still see it

    def test_history_reloads(self, outcome, tmp_path):
        store = ResultStore(tmp_path)
        store.save(outcome)
        history = store.history(outcome.spec)
        assert [r.to_dict() for r in history.records] == [
            r.to_dict() for r in outcome.history.records
        ]

    def test_specs_round_trip(self, outcome, tmp_path):
        store = ResultStore(tmp_path)
        store.save(outcome)
        (spec,) = store.specs()
        assert spec == outcome.spec


class TestRobustness:
    """One corrupt or half-written file cannot brick the store."""

    def test_save_is_atomic_no_temp_visible(self, outcome, tmp_path):
        store = ResultStore(tmp_path)
        path = store.save(outcome)
        # The tmp sibling was replaced away; only the record remains.
        assert [p.name for p in store.root.iterdir()] == [path.name]

    def test_records_skip_and_warn_on_corrupt_file(self, outcome, tmp_path):
        store = ResultStore(tmp_path)
        store.save(outcome)
        # A truncated write from the pre-atomic era / a damaged disk.
        (tmp_path / "zz_truncated__0000000000000000.json").write_text(
            '{"dataset": "adult", "final_accu'
        )
        with pytest.warns(StoreWarning, match="zz_truncated"):
            records = store.records()
        assert len(records) == 1
        assert records[0]["run_id"] == outcome.spec.run_id()

    def test_corrupt_direct_hit_falls_back_to_rerunnable_miss(
        self, outcome, tmp_path
    ):
        store = ResultStore(tmp_path)
        path = store.save(outcome)
        path.write_text("not json at all")
        with pytest.warns(StoreWarning):
            assert store.get(outcome.spec) is None
        # The cell reads as not-completed, so a sweep re-runs and the
        # atomic save overwrites the damage.
        with pytest.warns(StoreWarning):
            assert not store.completed(outcome.spec)
        store.save(outcome)
        assert store.completed(outcome.spec)

    def test_miss_never_parses_canonical_records(self, outcome, tmp_path):
        """The resume path is O(1), not O(store size): a miss globs for
        the run_id suffix and opens nothing — re-checking a fresh N-cell
        matrix stays O(N), not O(N²) JSON loads."""
        store = ResultStore(tmp_path)
        store.save(outcome)
        (tmp_path / "named__by__hand__1.json").write_text(
            json.dumps(outcome_to_dict(outcome))
        )

        opened = []
        original = ResultStore._load

        def counting_load(self, path):
            opened.append(path.name)
            return original(self, path)

        ResultStore._load = counting_load
        try:
            miss = outcome.spec.with_overrides(seed=999)
            assert store.get(miss) is None
        finally:
            ResultStore._load = original
        assert opened == []


class TestLegacyRecords:
    def test_pre_spec_files_still_load(self, outcome, tmp_path):
        """A record written before content addressing (no embedded spec,
        no run_id in its name) is never a cache hit, but the analysis
        surfaces still read it."""
        store = ResultStore(tmp_path)
        legacy = outcome_to_dict(outcome)
        del legacy["spec"]
        del legacy["run_id"]
        (tmp_path / "adult__homogeneous__fedavg__1.json").write_text(
            json.dumps(legacy)
        )
        (record,) = store.records()
        assert record["final_accuracy"] == outcome.final_accuracy
        assert not store.completed(outcome.spec)
        assert store.specs() == []
        assert len(store.histories(dataset="adult")) == 1
        assert store.leaderboard().settings == [("adult", "homogeneous")]
