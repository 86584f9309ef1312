"""Tests for the experiment runner, trials protocol and decision tree."""

import numpy as np
import pytest

from repro.experiments import (
    SkewDescription,
    recommend_algorithm,
    run_federated_experiment,
    run_trials,
)
from repro.experiments.runner import TrialSummary, paper_lr_for
from repro.experiments.scale import BENCH, PAPER, PRESETS, SMOKE


class TestScalePresets:
    def test_paper_matches_section5(self):
        assert PAPER.num_rounds == 50
        assert PAPER.local_epochs == 10
        assert PAPER.batch_size == 64
        assert PAPER.n_train is None  # generator/paper defaults

    def test_registry(self):
        assert PRESETS["bench"] is BENCH
        assert PRESETS["smoke"] is SMOKE

    def test_describe(self):
        assert "rounds=50" in PAPER.describe()


class TestPaperLr:
    def test_rcv1_special_case(self):
        assert paper_lr_for("rcv1") == 0.1

    def test_default(self):
        assert paper_lr_for("mnist") == 0.01
        assert paper_lr_for("CIFAR-10") == 0.01


class TestRunner:
    def test_outcome_fields(self):
        out = run_federated_experiment("adult", "iid", "fedavg", preset=SMOKE, seed=0)
        assert out.dataset == "adult"
        assert out.partition == "homogeneous"
        assert out.algorithm == "fedavg"
        assert len(out.history) == SMOKE.num_rounds
        assert 0.0 <= out.final_accuracy <= 1.0

    def test_partitioner_instance_accepted(self):
        from repro.partition import HomogeneousPartitioner

        out = run_federated_experiment(
            "adult", HomogeneousPartitioner(), "fedavg", preset=SMOKE, seed=0
        )
        assert out.partition == "homogeneous"

    def test_num_parties_default_from_partitioner(self):
        out = run_federated_experiment("fcube", "fcube", "fedavg", preset=SMOKE, seed=0)
        assert out.partition_result.num_parties == 4

    def test_overrides_beat_preset(self):
        out = run_federated_experiment(
            "adult", "iid", "fedavg", preset=SMOKE, num_rounds=2, seed=0
        )
        assert len(out.history) == 2

    def test_algorithm_kwargs_forwarded(self):
        out = run_federated_experiment(
            "adult",
            "iid",
            "fedprox",
            preset=SMOKE,
            algorithm_kwargs={"mu": 0.1},
            seed=0,
        )
        assert out.algorithm == "fedprox"

    def test_fcube_keeps_paper_size(self):
        out = run_federated_experiment("fcube", "fcube", "fedavg", preset=SMOKE, seed=0)
        assert out.info.num_train == 4000


class TestTrials:
    def test_three_trials_recorded(self):
        summary = run_trials(
            "adult", "iid", "fedavg", num_trials=2, preset=SMOKE, base_seed=0
        )
        assert len(summary.accuracies) == 2
        assert summary.std >= 0.0

    def test_format_cell(self):
        summary = TrialSummary("d", "p", "a", accuracies=[0.5, 0.7])
        assert summary.format_cell() == "60.0% +- 10.0%"

    def test_trials_validation(self):
        with pytest.raises(ValueError):
            run_trials("adult", "iid", "fedavg", num_trials=0)

    def test_trials_use_distinct_seeds(self):
        summary = run_trials(
            "adult", "dir(0.5)", "fedavg", num_trials=2, preset=SMOKE, base_seed=0
        )
        # With different partitions/initializations the two trials should
        # almost surely differ.
        assert summary.accuracies[0] != summary.accuracies[1]


class TestSpecEquivalence:
    """The facade and run_spec are two doors to the same execution."""

    def test_facade_matches_run_spec_bitwise(self):
        from repro.experiments import run_spec
        from repro.spec import RunSpec

        kwargs = dict(preset=SMOKE, seed=3, algorithm_kwargs={"mu": 0.05})
        via_facade = run_federated_experiment(
            "adult", "dir(0.5)", "fedprox", **kwargs
        )
        via_spec = run_spec(RunSpec.build("adult", "dir(0.5)", "fedprox", **kwargs))
        assert [r.to_dict() for r in via_facade.history.records] == [
            r.to_dict() for r in via_spec.history.records
        ]

    def test_spec_json_file_reproduces_flag_run(self, tmp_path):
        import json

        from repro.experiments import run_spec
        from repro.spec import RunSpec

        flag_run = run_federated_experiment("adult", "iid", "fedavg", preset=SMOKE, seed=2)
        spec_file = tmp_path / "cell.json"
        spec_file.write_text(flag_run.spec.to_json())
        file_run = run_spec(RunSpec.from_dict(json.loads(spec_file.read_text())))
        assert [r.to_dict() for r in file_run.history.records] == [
            r.to_dict() for r in flag_run.history.records
        ]

    def test_outcome_carries_spec(self):
        out = run_federated_experiment("adult", "iid", "fedavg", preset=SMOKE, seed=0)
        assert out.spec is not None
        assert out.spec.data.name == "adult"
        assert out.spec.run_id() == out.spec.run_id()


class TestTrialsWithStore:
    def test_second_invocation_runs_zero_new_cells(self, tmp_path, monkeypatch):
        from repro.experiments import scheduler as scheduler_module
        from repro.experiments.store import ResultStore

        store = ResultStore(tmp_path / "full")
        first = run_trials(
            "adult", "iid", "fedavg", num_trials=2, preset=SMOKE,
            base_seed=0, store=store,
        )
        assert len(store) == 2

        def _boom(spec, resume=None):
            raise AssertionError("stored trial re-ran")

        monkeypatch.setattr(scheduler_module, "run_spec", _boom)
        again = run_trials(
            "adult", "iid", "fedavg", num_trials=2, preset=SMOKE,
            base_seed=0, store=store,
        )
        assert again.accuracies == first.accuracies
        # The guard is live: the same call on an empty store hits _boom.
        with pytest.raises(RuntimeError, match="stored trial re-ran"):
            run_trials(
                "adult", "iid", "fedavg", num_trials=2, preset=SMOKE,
                base_seed=0, store=ResultStore(tmp_path / "empty"),
            )

    def test_spec_argument_exclusive_with_cell_args(self):
        from repro.spec import RunSpec

        spec = RunSpec.build("adult", "iid", "fedavg", preset=SMOKE)
        with pytest.raises(TypeError):
            run_trials("adult", "iid", "fedavg", spec=spec)
        with pytest.raises(TypeError):
            run_trials(spec=spec, preset=SMOKE)

    def test_prebuilt_spec_runs(self):
        from repro.spec import RunSpec

        spec = RunSpec.build("adult", "iid", "fedavg", preset=SMOKE)
        summary = run_trials(num_trials=1, spec=spec)
        assert len(summary.accuracies) == 1


class TestDecisionTree:
    @pytest.mark.parametrize(
        "spec,expected",
        [
            ("gau(0.1)", "scaffold"),
            ("fcube", "scaffold"),
            ("real-world", "scaffold"),
            ("#C=1", "fedprox"),
            ("#C=3", "fedavg"),
            ("dir(0.5)", "fedavg"),
            ("dir(0.05)", "fedprox"),
            ("quantity(0.5)", "fedprox"),
            ("iid", "fedavg"),
        ],
    )
    def test_figure6_rules(self, spec, expected):
        assert recommend_algorithm(spec) == expected

    def test_description_feature_skew(self):
        desc = SkewDescription(feature_skew=True)
        assert recommend_algorithm(desc) == "scaffold"

    def test_description_single_label(self):
        desc = SkewDescription(min_classes_per_party=1, label_skew=2.0)
        assert recommend_algorithm(desc) == "fedprox"

    def test_description_quantity(self):
        desc = SkewDescription(quantity_skew=0.8)
        assert recommend_algorithm(desc) == "fedprox"

    def test_description_iid(self):
        assert recommend_algorithm(SkewDescription()) == "fedavg"

    def test_description_from_measured_partition(self):
        # Drive the tree from actual partition statistics (Section 6.1).
        from repro.data import load_dataset
        from repro.partition import parse_strategy, stats

        train, _, info = load_dataset("mnist", n_train=300, n_test=50, seed=0)
        part = parse_strategy("#C=1").partition(train, 10, np.random.default_rng(0))
        desc = SkewDescription(
            label_skew=stats.label_skew_index(part, train.labels, info.num_classes),
            quantity_skew=stats.quantity_skew_index(part),
            min_classes_per_party=int(
                stats.effective_classes_per_party(part, train.labels, info.num_classes).min()
            ),
        )
        assert recommend_algorithm(desc) == "fedprox"

    def test_unknown_partitioner_rejected(self):
        class Custom:
            pass

        with pytest.raises(ValueError):
            recommend_algorithm(Custom())
