"""Tests for the experiment result store."""

import json

import pytest

from repro.experiments import run_federated_experiment
from repro.experiments.scale import SMOKE
from repro.experiments.store import ResultStore, StoreWarning, outcome_to_dict
from repro.spec import RunSpec


@pytest.fixture(scope="module")
def outcome():
    return run_federated_experiment("adult", "iid", "fedavg", preset=SMOKE, seed=1)


#: one record exactly as the commit before ``num_workers`` / ``"auto"``
#: were deleted wrote it (adult / iid / fedavg, SMOKE, seed 1, one round)
OLD_RECORD = """{
  "dataset": "adult", "partition": "homogeneous", "algorithm": "fedavg",
  "model": "default", "seed": 1, "final_accuracy": 0.22, "best_accuracy": 0.22,
  "history": {"records": [{
    "round": 0, "test_accuracy": 0.22, "train_loss": 0.75892353951931,
    "participants": [0, 1, 2, 3, 4, 5, 6, 7, 8, 9],
    "bytes_communicated": 372000, "client_steps": [2, 2, 2, 2, 2, 2, 2, 2, 2, 2],
    "bytes_down": 186000, "bytes_up": 186000,
    "client_bytes_up": [18600, 18600, 18600, 18600, 18600, 18600, 18600, 18600, 18600, 18600],
    "sampled": [0, 1, 2, 3, 4, 5, 6, 7, 8, 9], "dropped": [], "drop_reasons": [],
    "slowdowns": [], "fallback": null, "virtual_time": 0.0, "staleness": [],
    "buffer_flush": 0}]},
  "party_sizes": [30, 30, 30, 30, 30, 30, 30, 30, 30, 30],
  "config": {"num_rounds": 1, "local_epochs": 2, "batch_size": 32, "lr": 0.01,
    "sample_fraction": 1.0, "sampler": "uniform", "optimizer": "sgd",
    "bn_policy": "average", "codec": "identity", "codec_bits": 8, "codec_k": 0.1},
  "spec": {
    "data": {"name": "adult", "n_train": 300, "n_test": 150, "kwargs": {}},
    "partition": {"strategy": "iid", "num_parties": 10},
    "model": {"name": "default", "kwargs": {}},
    "algorithm": {"name": "fedavg", "kwargs": {}},
    "train": {"num_rounds": 1, "local_epochs": 2, "batch_size": 32, "lr": 0.01,
      "optimizer": "sgd", "sample_fraction": 1.0, "sampler": "uniform",
      "bn_policy": "average", "eval_every": 1},
    "comm": {"codec": "identity", "bits": 8, "k": 0.1},
    "faults": {"dropout_prob": 0.0, "straggler_prob": 0.0, "straggler_factor": 1.0,
      "crash_prob": 0.0, "deadline": null},
    "population": {"size": null, "sample_per_round": null, "samples_per_client": 64,
      "skew_beta": null, "aggregation": "sync", "buffer_size": null,
      "staleness_exponent": 0.0},
    "exec": {"executor": "auto", "num_workers": 0, "stack_size": 16,
      "stacked_tolerance": 0.0, "checkpoint_every": 0, "checkpoint_path": null,
      "compile": false},
    "seed": 1},
  "run_id": "9f226509bf3af88f"
}"""


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
        # A serially-computed result satisfies a stacked run's lookup.
        store = ResultStore(tmp_path)
        store.save(outcome)
        stacked = outcome.spec.with_overrides(executor="stacked", stack_size=4)
        assert store.completed(stacked)

    def test_record_written_before_the_pool_was_deleted_still_resumes(self, tmp_path):
        # Lookups match on run_id and never re-parse the embedded spec,
        # so a matrix finished under ``exec = {"executor": "auto",
        # "num_workers": 0, ...}`` re-runs nothing today.
        from repro.experiments.scheduler import run_cells

        spec = RunSpec.build("adult", "iid", "fedavg", preset=SMOKE, seed=1, num_rounds=1)
        assert spec.run_id() == "9f226509bf3af88f"
        (tmp_path / "adult__fedavg__9f226509bf3af88f.json").write_text(OLD_RECORD)
        store = ResultStore(tmp_path)
        assert store.completed(spec)
        assert store.history(spec).accuracies.tolist() == [0.22]
        report = run_cells([spec], store=store)
        assert (report.cached, report.ran) == ([spec.run_id()], [])
        # Re-parsing the embedded spec is the one door that is strict; it
        # also names ``stacked_tolerance``, deleted since.
        with pytest.raises(
            ValueError,
            match=r"unknown ExecSpec fields \['num_workers', 'stacked_tolerance'\]",
        ):
            store.specs()

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
