"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.experiments.store import ResultStore


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_args(self):
        args = build_parser().parse_args(
            ["run", "--dataset", "mnist", "--partition", "#C=2", "--alg", "fedavg"]
        )
        assert args.command == "run"
        assert args.dataset == "mnist"
        assert args.mu == 0.01

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "--dataset", "imagenet", "--partition", "iid", "--alg", "fedavg"]
            )

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "--dataset", "mnist", "--partition", "iid", "--alg", "fedsgd"]
            )

    @pytest.mark.parametrize(
        "argv",
        [
            ["table3", "--datasets", "adult", "--jobs", "0"],
            ["trials", "--dataset", "adult", "--partition", "iid",
             "--alg", "fedavg", "--jobs", "-1"],
        ],
        ids=["table3", "trials"],
    )
    def test_nonpositive_jobs_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "argument --jobs: must be a positive integer" in capsys.readouterr().err


class TestCommands:
    def test_recommend(self, capsys):
        assert main(["recommend", "--partition", "gau(0.1)"]) == 0
        assert capsys.readouterr().out.strip() == "scaffold"

    def test_partition_report(self, capsys):
        code = main(
            [
                "partition-report",
                "--dataset", "mnist",
                "--partition", "dir(0.5)",
                "--n-train", "200",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "label-skew" in out
        assert "party" in out

    def test_run_smoke(self, capsys):
        code = main(
            [
                "run",
                "--dataset", "adult",
                "--partition", "iid",
                "--alg", "fedavg",
                "--preset", "smoke",
                "--comm-round", "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "final accuracy" in out
        assert "communication" in out

    def test_trials_smoke(self, capsys):
        code = main(
            [
                "trials",
                "--dataset", "adult",
                "--partition", "iid",
                "--alg", "fedavg",
                "--preset", "smoke",
                "--comm-round", "2",
                "-n", "2",
            ]
        )
        assert code == 0
        assert "+-" in capsys.readouterr().out


class TestNewCommands:
    def test_run_plot_flag(self, capsys):
        code = main(
            [
                "run",
                "--dataset", "adult",
                "--partition", "iid",
                "--alg", "fedavg",
                "--preset", "smoke",
                "--comm-round", "2",
                "--plot",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "o=fedavg" in out  # the ASCII chart legend

    def test_table3_slice(self, capsys):
        code = main(
            [
                "table3",
                "--datasets", "adult",
                "--partitions", "iid",
                "--algs", "fedavg",
                "--preset", "smoke",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "wins:" in out

    def test_list_prints_all_registries(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("mnist", "dir(", "cnn", "fedavg", "qsgd"):
            assert name in out

    def test_print_spec_emits_resolved_json(self, capsys):
        import json

        code = main(
            [
                "run",
                "--dataset", "adult",
                "--partition", "iid",
                "--alg", "fedavg",
                "--preset", "smoke",
                "--print-spec",
            ]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["data"]["name"] == "adult"
        assert data["train"]["num_rounds"] > 0  # preset resolved, not None

    def test_run_from_spec_file(self, capsys, tmp_path):
        import json

        main(
            [
                "run",
                "--dataset", "adult",
                "--partition", "iid",
                "--alg", "fedavg",
                "--preset", "smoke",
                "--comm-round", "2",
                "--print-spec",
            ]
        )
        spec_file = tmp_path / "cell.json"
        spec_file.write_text(capsys.readouterr().out)
        code = main(["run", "--spec", str(spec_file)])
        assert code == 0
        out = capsys.readouterr().out
        assert "final accuracy" in out
        assert "run id:" in out
        assert json.loads(spec_file.read_text())["data"]["name"] == "adult"

    def test_spec_flags_missing_is_an_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "--preset", "smoke"])

    def test_bad_exec_knob_fails_at_print_spec_time(self):
        # Range checks live once, on FederatedConfig; validate() surfaces
        # them before any compute — even when only printing the spec.
        argv = [
            "run", "--dataset", "adult", "--partition", "iid", "--alg", "fedavg",
            "--preset", "smoke", "--print-spec",
        ]
        with pytest.raises(ValueError, match="invalid RunSpec:\n.*stack_size"):
            main([*argv, "--stack-size", "1"])
        with pytest.raises(SystemExit):  # choices= come from EXECUTORS
            main([*argv, "--executor", "parallel"])
        with pytest.raises(ValueError, match="invalid RunSpec:\n.*stratified"):
            main([*argv, "--population", "1000", "--party-sampler", "stratified"])

    def test_population_run_rejects_checkpointing(self, tmp_path):
        """AsyncFederation has no checkpoint path: asking for one must fail
        loudly, not exit 0 having written nothing."""
        checkpoint = tmp_path / "x"
        with pytest.raises(ValueError, match="checkpoint_every.*not supported"):
            main(
                [
                    "run",
                    "--population", "1000",
                    "--aggregation", "async",
                    "--checkpoint-every", "5",
                    "--checkpoint-path", str(checkpoint),
                ]
            )
        assert not checkpoint.exists()

    def test_resume_and_plot_are_run_only_flags(self, capsys, tmp_path):
        """`trials` used to accept both and silently ignore them."""
        cell = [
            "--dataset", "adult", "--partition", "iid", "--alg", "fedavg",
            "--preset", "smoke",
        ]
        for stray in (["--resume", "x"], ["--plot"]):
            with pytest.raises(SystemExit) as error:
                main(["trials", *cell, *stray])
            assert error.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err
        checkpoint = tmp_path / "run.ckpt"
        run = ["run", *cell, "--comm-round", "3"]
        assert main(
            [*run, "--checkpoint-every", "2", "--checkpoint-path", str(checkpoint)]
        ) == 0
        full = capsys.readouterr().out
        assert main([*run, "--resume", str(checkpoint)]) == 0
        resumed = capsys.readouterr().out
        assert resumed == full  # rounds 0-1 from the checkpoint, round 2 re-run

    def test_trials_store_resume(self, capsys, tmp_path):
        argv = [
            "trials",
            "--dataset", "adult",
            "--partition", "iid",
            "--alg", "fedavg",
            "--preset", "smoke",
            "--comm-round", "2",
            "-n", "2",
            "--store", str(tmp_path),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert len(list(tmp_path.glob("*.json"))) == 2
        # Second invocation reloads both trials from the store.
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        assert len(list(tmp_path.glob("*.json"))) == 2

    def test_table3_save(self, capsys, tmp_path):
        """``table3 --store DIR`` saves the board: the printed table is
        ``ResultStore(DIR).leaderboard().render()``."""
        code = main(
            [
                "table3",
                "--datasets", "adult",
                "--partitions", "iid",
                "--algs", "fedavg", "fedprox",
                "--preset", "smoke",
                "--store", str(tmp_path),
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out.split("\n\n", 1)[1]
        # The store labels a partition by its partitioner ("homogeneous"),
        # the matrix by the spec string ("iid"); everything else is equal.
        store = ResultStore(tmp_path)
        for record in store.records():
            spec_label = record["spec"]["partition"]["strategy"]
            printed = printed.replace(
                f" {spec_label:16s} |", f" {record['partition']:16s} |"
            )
        assert printed == store.leaderboard().render() + "\n"


@pytest.mark.concurrent
class TestJobsFlag:
    def test_table3_jobs_without_store_uses_scratch(self, capsys):
        code = main(
            [
                "table3",
                "--datasets", "adult",
                "--partitions", "iid",
                "--algs", "fedavg",
                "--preset", "smoke",
                "--jobs", "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "adult / iid / fedavg:" in out
        assert "wins:" in out

    def test_table3_jobs_store_resume_after_kill_shape(self, capsys, tmp_path):
        """Invoke, then re-invoke against the same store: the second pass
        reads everything back (the CLI shape of resume-after-kill)."""
        args = [
            "table3",
            "--datasets", "adult",
            "--partitions", "iid",
            "--algs", "fedavg", "fedprox",
            "--preset", "smoke",
            "--store", str(tmp_path / "runs"),
            "--jobs", "2",
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        import pathlib

        files = {
            p.name: p.read_bytes()
            for p in pathlib.Path(tmp_path / "runs").glob("*.json")
        }
        assert len(files) == 2
        assert main(args) == 0
        second = capsys.readouterr().out
        assert {
            p.name: p.read_bytes()
            for p in pathlib.Path(tmp_path / "runs").glob("*.json")
        } == files
        assert first.splitlines()[-2:] == second.splitlines()[-2:]

    def test_trials_jobs(self, capsys, tmp_path):
        code = main(
            [
                "trials",
                "--dataset", "adult",
                "--partition", "iid",
                "--alg", "fedavg",
                "--preset", "smoke",
                "-n", "2",
                "--jobs", "2",
                "--store", str(tmp_path / "runs"),
            ]
        )
        assert code == 0
        assert "adult / iid / fedavg:" in capsys.readouterr().out
