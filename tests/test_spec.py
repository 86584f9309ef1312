"""Tests for the typed, content-addressed experiment spec (``RunSpec``)."""

import ast
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.spec import (
    OVERRIDE_PATHS,
    SECTIONS,
    AlgorithmSpec,
    DataSpec,
    ExecSpec,
    PartitionSpec,
    RunSpec,
    TrainSpec,
    overridable_names,
)

SRC = Path(__file__).resolve().parents[1] / "src"

#: One row per flat override name: a valid non-default value, the CLI
#: flag that sets it (None = no flag), and companion knobs the value
#: needs to be a valid run.  ``TestKnobLockstep`` drives every row
#: through build / FederatedConfig.from_spec / the CLI / both run doors;
#: ``TestRunId`` reads the same rows.  A new knob fails the suite until
#: it has a row.
KNOBS = {
    "dataset": ("covtype", "--dataset", {}),
    "n_train": (120, None, {}),
    "n_test": (60, None, {}),
    "dataset_kwargs": ({"mix": 0.3}, None, {}),
    "partition": ("dir(0.5)", "--partition", {}),
    "num_parties": (5, "--n-parties", {}),
    "model": ("logistic", "--model", {}),
    "model_kwargs": ({"hidden": [8, 4]}, None, {}),
    "algorithm": ("fednova", "--alg", {}),
    "algorithm_kwargs": ({"mu": 0.2}, None, {"algorithm": "fedprox"}),
    "mu": (0.3, "--mu", {"algorithm": "fedprox"}),
    "num_rounds": (3, "--comm-round", {}),
    "local_epochs": (1, "--epochs", {}),
    "batch_size": (16, "--batch-size", {}),
    "lr": (0.05, "--lr", {}),
    "optimizer": ("adam", "--optimizer", {}),
    "sample_fraction": (0.5, "--sample", {}),
    "sampler": ("stratified", "--party-sampler", {}),
    "bn_policy": ("local", None, {}),
    "eval_every": (2, None, {}),
    "dp_noise_multiplier": (0.5, None, {}),
    "codec": ("qsgd", "--codec", {}),
    "codec_bits": (4, "--codec-bits", {}),
    "codec_k": (0.25, "--codec-k", {}),
    "dropout_prob": (0.2, "--dropout-prob", {}),
    "straggler_prob": (0.2, "--straggler-prob", {}),
    "straggler_factor": (2.0, "--straggler-factor", {}),
    "crash_prob": (0.1, "--crash-prob", {}),
    "deadline": (1.5, "--deadline", {}),
    "population": (20, "--population", {}),
    "sample_per_round": (4, "--sample-per-round", {}),
    "samples_per_client": (32, "--samples-per-client", {}),
    "population_skew_beta": (0.5, "--population-skew-beta", {}),
    "aggregation": ("async", "--aggregation", {}),
    "buffer_size": (3, "--buffer-size", {}),
    "staleness_exponent": (0.5, "--staleness-exponent", {}),
    "executor": ("stacked", "--executor", {}),
    "stack_size": (8, "--stack-size", {}),
    "checkpoint_every": (2, "--checkpoint-every", {"checkpoint_path": "run.ckpt"}),
    "checkpoint_path": ("run.ckpt", "--checkpoint-path", {}),
    "compile": (True, "--compile", {}),
    "seed": (7, "--init-seed", {}),
}


BASE_CELL = {"dataset": "adult", "partition": "iid", "algorithm": "fedavg"}


def knob_cell(name=None) -> dict:
    """Build keywords of the lockstep base cell, with knob ``name`` set."""
    if name is None:
        return dict(BASE_CELL)
    value, _, needs = KNOBS[name]
    return {**BASE_CELL, **needs, name: value}


def knob_spec(name=None) -> RunSpec:
    from repro.experiments.scale import SMOKE

    return RunSpec.build(preset=SMOKE, **knob_cell(name))


def knob_path(name) -> tuple:
    """(section, field) behind a flat knob; ``mu`` lives in algorithm.kwargs."""
    return ("algorithm", "kwargs") if name == "mu" else OVERRIDE_PATHS[name]


def knob_value(spec: RunSpec, name):
    """What ``spec`` holds for flat knob ``name``."""
    section, attr = knob_path(name)
    value = getattr(spec if section is None else getattr(spec, section), attr)
    return value.get("mu") if name == "mu" else value


def make_spec(**build_kwargs) -> RunSpec:
    from repro.experiments.scale import SMOKE

    build_kwargs.setdefault("preset", SMOKE)
    return RunSpec.build("adult", "dir(0.5)", "fedprox", **build_kwargs)


class TestRoundTrip:
    def test_to_dict_from_dict_equal(self):
        spec = make_spec(algorithm_kwargs={"mu": 0.1}, seed=7)
        assert RunSpec.from_dict(spec.to_dict()) == spec

    def test_json_round_trip(self):
        spec = make_spec()
        again = RunSpec.from_dict(json.loads(spec.to_json()))
        assert again == spec
        assert again.run_id() == spec.run_id()

    def test_missing_sections_get_defaults(self):
        spec = RunSpec.from_dict(
            {
                "data": {"name": "adult", "n_train": 100, "n_test": 50},
                "partition": {"strategy": "iid"},
                "algorithm": {"name": "fedavg"},
                "train": {
                    "num_rounds": 2, "local_epochs": 1,
                    "batch_size": 32, "lr": 0.01,
                },
            }
        )
        assert spec.comm.codec == "identity"
        assert spec.faults.dropout_prob == 0.0
        assert spec.exec.executor == "serial"
        assert spec.seed == 0

    def test_unknown_section_rejected(self):
        with pytest.raises(ValueError, match="unknown RunSpec sections"):
            RunSpec.from_dict({**make_spec().to_dict(), "extras": {}})

    def test_unknown_field_rejected(self):
        data = make_spec().to_dict()
        data["train"]["learning_rate"] = 0.1  # typo'd field name
        with pytest.raises(ValueError, match="learning_rate"):
            RunSpec.from_dict(data)

    def test_deleted_exec_knobs_fail_strictly(self):
        # Spec files written before the fork pool (or the stacked drift
        # tolerance) was deleted carry these; there is no compatibility
        # shim, only the ordinary strict errors.
        data = make_spec().to_dict()
        for name, value in (("num_workers", 0), ("stacked_tolerance", 0.0)):
            with pytest.raises(
                ValueError, match=rf"unknown ExecSpec fields \['{name}'\]; known: \["
            ):
                RunSpec.from_dict({**data, "exec": {**data["exec"], name: value}})
        stale = RunSpec.from_dict({**data, "exec": {**data["exec"], "executor": "auto"}})
        with pytest.raises(
            ValueError,
            match=r"invalid RunSpec:\n.*unknown executor 'auto'; "
            r"available: \['serial', 'stacked'\]",
        ):
            stale.validate()

    def test_non_serializable_kwargs_rejected(self):
        with pytest.raises(TypeError, match="JSON-serializable"):
            make_spec(algorithm_kwargs={"mu": object()})


class TestRunId:
    def test_deterministic_within_process(self):
        assert make_spec(seed=3).run_id() == make_spec(seed=3).run_id()

    def test_sixteen_hex_digits(self):
        run_id = make_spec().run_id()
        assert len(run_id) == 16
        int(run_id, 16)

    def test_every_scientific_override_changes_it(self):
        base = knob_spec().run_id()
        for name in KNOBS:
            if knob_path(name)[0] != "exec":
                assert knob_spec(name).run_id() != base, name

    @pytest.mark.parametrize(
        "algorithm,first,second",
        [
            ("scaffold", {"option": 2}, {"option": 2.0}),
            ("fedprox", {"mu": 1}, {"mu": 1.0}),
        ],
    )
    def test_equal_algorithm_kwargs_share_it(self, algorithm, first, second):
        """A number is stored as its constructor parameter's type, so the
        same setting written as an int or a float is one cell."""
        specs = [
            RunSpec.build("adult", "iid", algorithm, algorithm_kwargs=kwargs)
            for kwargs in (first, second)
        ]
        assert specs[0].run_id() == specs[1].run_id()
        assert specs[0] == specs[1]

    def test_exec_fields_do_not_change_it(self):
        base = knob_spec().run_id()
        exec_knobs = [name for name in KNOBS if knob_path(name)[0] == "exec"]
        assert exec_knobs == [f.name for f in dataclasses.fields(ExecSpec)]
        for name in exec_knobs:
            assert knob_spec(name).run_id() == base, name

    def test_stable_across_hash_seeds(self):
        """run_id survives process boundaries and PYTHONHASHSEED changes."""
        spec = make_spec(seed=11)
        script = (
            "import json, sys\n"
            "from repro.spec import RunSpec\n"
            "print(RunSpec.from_dict(json.loads(sys.argv[1])).run_id())\n"
        )
        for hash_seed in ("0", "1", "4242"):
            env = {
                **os.environ,
                "PYTHONHASHSEED": hash_seed,
                "PYTHONPATH": str(SRC),
            }
            out = subprocess.run(
                [sys.executable, "-c", script, spec.to_json(indent=None)],
                env=env, capture_output=True, text=True, check=True,
            )
            assert out.stdout.strip() == spec.run_id()


class TestWithOverrides:
    def test_returns_new_spec(self):
        spec = make_spec()
        other = spec.with_overrides(lr=0.5)
        assert other.train.lr == 0.5
        assert spec.train.lr != 0.5  # original untouched

    def test_mu_alias_merges_algorithm_kwargs(self):
        spec = make_spec(algorithm_kwargs={"mu": 0.01})
        other = spec.with_overrides(mu=0.9)
        assert other.algorithm.kwargs == {"mu": 0.9}

    def test_dotted_path(self):
        spec = make_spec().with_overrides(**{"train.lr": 0.25})
        assert spec.train.lr == 0.25

    def test_unknown_name_lists_options(self):
        with pytest.raises(KeyError, match="dropout_prob"):
            make_spec().with_overrides(dropout=0.1)

    def test_unknown_dotted_field_rejected(self):
        with pytest.raises(KeyError):
            make_spec().with_overrides(**{"train.momentum": 0.9})

    def test_override_paths_cover_spec_fields(self):
        # Every flat name must resolve to a real dataclass field.
        for name, (section, attr) in OVERRIDE_PATHS.items():
            if section is None:
                assert attr == "seed"
                continue
            fields = {f.name for f in dataclasses.fields(SECTIONS[section])}
            assert attr in fields, name
        assert "mu" in overridable_names()


class TestKnobLockstep:
    """One declaration per knob: every door reads the section field."""

    def test_every_knob_has_a_row(self):
        assert sorted(KNOBS) == list(overridable_names())

    @pytest.mark.parametrize("name", sorted(KNOBS))
    def test_build_lands_on_the_section_field(self, name):
        value = KNOBS[name][0]
        assert knob_value(knob_spec(), name) != value, "row value must be non-default"
        assert knob_value(knob_spec(name), name) == value

    @pytest.mark.parametrize("name", sorted(KNOBS))
    def test_config_carries_every_field_it_shares(self, name):
        """The config view reads each engine-section knob, at its section
        default and at the row value, and carries no other knob."""
        from repro.federated import FederatedConfig
        from repro.federated.config import ENGINE_SECTIONS

        spec = knob_spec(name)
        config = FederatedConfig.from_spec(spec)
        section, attr = knob_path(name)
        if name == "seed":
            assert config.seed == spec.seed + 41
            assert FederatedConfig().seed == 0
        elif section in ENGINE_SECTIONS:
            assert getattr(FederatedConfig(), name) == getattr(SECTIONS[section](), attr)
            assert getattr(config, name) == KNOBS[name][0]
        else:
            assert not hasattr(config, name)

    def test_config_declares_no_field(self):
        """``config.py`` holds no knob name, default or check of its own."""
        from repro.federated import FederatedConfig, config

        (view,) = [
            node
            for node in ast.parse(Path(config.__file__).read_text()).body
            if isinstance(node, ast.ClassDef)
        ]
        assert all(isinstance(node, (ast.Expr, ast.FunctionDef)) for node in view.body)
        assert not dataclasses.is_dataclass(FederatedConfig)

    def test_cli_restates_no_default(self):
        from repro.cli import build_parser
        from repro.federated.algorithms.fedprox import DEFAULT_MU

        parsed = vars(build_parser().parse_args(["run"]))
        flagged = {name for name in parsed if name in overridable_names()}
        assert flagged == {name for name, row in KNOBS.items() if row[1]}
        assert parsed.pop("mu") == DEFAULT_MU  # FedProx's own declaration
        assert all(parsed[name] is None for name in flagged - {"mu"})

    @pytest.mark.parametrize(
        "name", sorted(name for name, row in KNOBS.items() if row[1])
    )
    def test_cli_flag_round_trips_through_print_spec(self, name, capsys):
        from repro.cli import main

        argv = ["run", "--preset", "smoke", "--print-spec"]
        for knob, value in knob_cell(name).items():
            argv.append(KNOBS[knob][1])
            if value is not True:
                argv.append(str(value))
        assert main(argv) == 0
        printed = RunSpec.from_dict(json.loads(capsys.readouterr().out))
        assert printed == knob_spec(name)

    @pytest.mark.parametrize("name", sorted(KNOBS))
    def test_facade_and_run_spec_agree_bitwise(self, name, tmp_path, monkeypatch):
        from repro.experiments import run_federated_experiment, run_spec
        from repro.experiments.scale import SMOKE

        monkeypatch.chdir(tmp_path)  # the checkpoint rows write run.ckpt
        via_facade = run_federated_experiment(preset=SMOKE, **knob_cell(name))
        via_spec = run_spec(knob_spec(name))
        assert via_facade.spec == via_spec.spec
        assert [r.to_dict() for r in via_facade.history.records] == [
            r.to_dict() for r in via_spec.history.records
        ]

    @pytest.mark.parametrize("door", ["build", "facade", "with_overrides"])
    def test_unknown_knob_lists_the_valid_names(self, door):
        from repro.experiments import run_federated_experiment

        with pytest.raises(KeyError, match="dropout_prob") as excinfo:
            if door == "build":
                RunSpec.build("adult", "iid", "fedavg", dropout=0.1)
            elif door == "facade":
                run_federated_experiment("adult", "iid", "fedavg", dropout=0.1)
            else:
                knob_spec().with_overrides(dropout=0.1)
        assert "'dropout'" in str(excinfo.value)


class TestBuild:
    def test_preset_defaults_applied(self):
        from repro.experiments.scale import SMOKE

        spec = make_spec()
        assert spec.data.n_train == SMOKE.n_train
        assert spec.train.num_rounds == SMOKE.num_rounds

    def test_paper_lr_resolution(self):
        assert make_spec().train.lr == 0.01
        rcv1 = RunSpec.build("rcv1", "iid", "fedavg")
        assert rcv1.train.lr == 0.1

    def test_fcube_keeps_paper_size(self):
        spec = RunSpec.build("fcube", "fcube", "fedavg")
        assert spec.data.n_train is None
        assert spec.data.n_test is None
        assert spec.partition.num_parties == 4

    def test_partitioner_instance_recorded_canonically(self):
        from repro.partition import DistributionBasedLabelSkew

        spec = RunSpec.build(
            "adult", DistributionBasedLabelSkew(beta=0.5), "fedavg"
        )
        assert spec.partition.strategy == "dir(0.5)"

    def test_phrasing_does_not_change_run_id(self):
        from repro.partition import parse_strategy

        by_string = RunSpec.build("adult", "dir(0.5)", "fedavg", seed=3)
        by_instance = RunSpec.build(
            "adult", parse_strategy("dir(0.5)"), "fedavg", seed=3
        )
        assert by_string.run_id() == by_instance.run_id()


class TestSpecStrings:
    def test_all_strategy_examples_round_trip(self):
        from repro.partition import STRATEGY_EXAMPLES, parse_strategy

        for example in STRATEGY_EXAMPLES:
            partitioner = parse_strategy(example)
            again = parse_strategy(partitioner.spec_string())
            assert repr(again) == repr(partitioner), example


class TestValidate:
    def test_valid_spec_returns_self(self):
        spec = make_spec()
        assert spec.validate() is spec

    @pytest.mark.parametrize(
        "override,fragment",
        [
            ({"dataset": "imagenet"}, "unknown dataset"),
            ({"model": "transformer"}, "unknown model"),
            ({"algorithm": "fedsgd"}, "unknown algorithm"),
            ({"codec": "zip"}, "unknown codec"),
            ({"partition": "zipf(2)"}, "zipf"),
            ({"num_parties": 0}, "num_parties"),
            ({"num_rounds": 0}, "num_rounds"),
            ({"lr": -1.0}, "lr"),
            ({"sample_fraction": 0.0}, "sample_fraction"),
            # no per-party label counts to stratify a virtual population on
            ({"population": 1000, "sampler": "stratified"}, "stratified"),
            # the event engine writes no checkpoints
            (
                {"aggregation": "async", "checkpoint_every": 2, "checkpoint_path": "x"},
                "checkpoint_every is not supported",
            ),
            # NaN fails every float knob's range predicate
            *(
                ({name: float("nan")}, f"{name.replace('population_', '')} .*got nan")
                for name in (
                    "lr", "sample_fraction", "dp_noise_multiplier", "codec_k",
                    "dropout_prob", "straggler_prob", "straggler_factor",
                    "crash_prob", "deadline", "population_skew_beta",
                    "staleness_exponent",
                )
            ),
            # and the exec section's one numeric knob, by its type check
            ({"stack_size": float("nan")}, "stack_size must be an integer, got nan"),
            # +inf passes a one-sided range predicate but trains on NaN weights
            *(
                ({name: float("inf")}, f"{name.replace('population_', '')} .*got inf")
                for name in (
                    "lr", "dp_noise_multiplier", "straggler_factor", "deadline",
                    "staleness_exponent", "population_skew_beta",
                )
            ),
            # algorithm kwargs are checked by building the algorithm
            ({"algorithm": "fedprox", "algorithm_kwargs": {"mue": 0.1}}, "mue"),
            ({"algorithm": "fedprox", "mu": -1.0}, "mu must be non-negative"),
            ({"algorithm": "fedprox", "mu": float("nan")}, "mu .*got nan"),
            ({"algorithm": "fedprox", "mu": float("inf")}, "mu .*got inf"),
            ({"algorithm": "fedopt", "algorithm_kwargs": {"lr": float("nan")}}, "lr .*got nan"),
            ({"algorithm": "fedopt", "algorithm_kwargs": {"lr": 0.0}}, "lr must be positive"),
            ({"algorithm": "fedopt", "algorithm_kwargs": {"server_momentum": float("nan")}},
             "server_momentum .*got nan"),
            ({"algorithm": "fedopt", "algorithm_kwargs": {"beta2": 1.0}}, "beta2"),
            ({"algorithm": "fedopt", "algorithm_kwargs": {"eps": float("inf")}}, "eps .*got inf"),
            ({"algorithm": "scaffold", "algorithm_kwargs": {"option": 3}}, "option"),
            # an int knob takes an int: a float or a bool passes its range
            # check, then fails or truncates inside the run
            ({"num_rounds": 2.5}, "num_rounds must be an integer, got 2.5"),
            ({"codec_bits": 8.5}, "codec_bits must be an integer, got 8.5"),
            ({"batch_size": True}, "batch_size must be an integer, got True"),
            ({"samples_per_client": 64.0}, "samples_per_client must be an integer"),
            ({"stack_size": 4.0}, "stack_size must be an integer, got 4.0"),
            # a knob is type-checked before any range check compares it
            ({"num_rounds": None}, "num_rounds must be an integer, got None"),
            ({"lr": None}, "lr must be a number, got None"),
            ({"lr": "0.1"}, "lr must be a number, got '0.1'"),
        ],
    )
    def test_invalid_specs_rejected(self, override, fragment):
        with pytest.raises(ValueError, match=fragment):
            make_spec().with_overrides(**override).validate()

    @pytest.mark.parametrize(
        "section,key,fragment",
        [
            ("algorithm", "kwargs", "algorithm_kwargs must be a dict, got None"),
            ("algorithm", "name", "algorithm must be a string, got None"),
        ],
    )
    def test_null_in_a_spec_file_rejected(self, section, key, fragment):
        data = make_spec().to_dict()
        data[section][key] = None
        with pytest.raises(ValueError, match=fragment):
            RunSpec.from_dict(data).validate()

    @pytest.mark.parametrize(
        "key,value,fragment",
        [
            # a seed is read as written, never coerced to another run's id
            ("seed", 1.5, "seed must be an integer, got 1.5"),
            ("seed", True, "seed must be an integer, got True"),
            ("seed", "7", "seed must be an integer, got '7'"),
            ("seed", None, "seed must be an integer, got None"),
            # a section is an object holding at least its required fields
            ("data", None, "section 'data' must be an object, got None"),
            ("train", [], r"section 'train' must be an object, got \[\]"),
            ("comm", 3, "section 'comm' must be an object, got 3"),
            ("data", {}, r"section 'data' lacks required fields \['name'\]"),
        ],
    )
    def test_malformed_spec_file_rejected(self, key, value, fragment):
        data = make_spec().to_dict()
        data[key] = value
        with pytest.raises(ValueError, match=fragment):
            RunSpec.from_dict(data).validate()

    @pytest.mark.parametrize(
        "algorithm,kwargs",
        [
            ("fedprox", {"mu": 0.0}),
            ("fedprox", {"mu": 1}),
            ("fedopt", {"variant": "adam", "lr": 0.05}),
            ("scaffold", {"option": 1}),
            ("fednova", {"momentum_correction": True}),
        ],
    )
    def test_valid_algorithm_kwargs_accepted(self, algorithm, kwargs):
        spec = make_spec().with_overrides(algorithm=algorithm, algorithm_kwargs=kwargs)
        assert spec.validate() is spec

    def test_problems_collected_together(self):
        bad = make_spec().with_overrides(dataset="imagenet", codec="zip")
        with pytest.raises(ValueError) as excinfo:
            bad.validate()
        assert "imagenet" in str(excinfo.value)
        assert "zip" in str(excinfo.value)


class TestDescribe:
    def test_mentions_cell_and_run_id(self):
        spec = make_spec(seed=5)
        text = spec.describe()
        assert "adult" in text
        assert "dir(0.5)" in text
        assert spec.run_id() in text


class TestConstruction:
    def test_minimal_direct_construction(self):
        spec = RunSpec(
            data=DataSpec(name="adult", n_train=100, n_test=50),
            partition=PartitionSpec(strategy="iid"),
            algorithm=AlgorithmSpec(name="fedavg"),
            train=TrainSpec(num_rounds=2, local_epochs=1, batch_size=32, lr=0.01),
        )
        assert spec.validate() is spec
        assert RunSpec.from_dict(spec.to_dict()) == spec
