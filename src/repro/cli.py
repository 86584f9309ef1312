"""Command-line interface, mirroring the original NIID-Bench entry point.

Usage::

    python -m repro run --dataset cifar10 --partition "#C=2" \\
        --alg fedprox --mu 0.01 --comm-round 20 --epochs 5
    python -m repro run --spec examples/table3_cell.json
    python -m repro partition-report --dataset mnist --partition "dir(0.5)"
    python -m repro recommend --partition "gau(0.1)"
    python -m repro list
    python -m repro trials --dataset adult --partition iid --alg fedavg -n 3

Flag names follow the original repository where they exist
(``--alg``, ``--comm-round``, ``--epochs``, ``--mu``, ``--beta`` map onto
NIID-Bench's arguments).  Every experiment command resolves its flags
into a :class:`repro.spec.RunSpec` first; ``--spec file.json`` skips the
flags and loads the spec directly, and ``run --print-spec`` emits the
resolved spec as JSON without training (the way to author spec files).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from repro.comm import CODEC_NAMES
from repro.data import DATASET_NAMES, load_dataset
from repro.experiments import run_spec, run_trials
from repro.experiments.decision_tree import recommend_algorithm
from repro.experiments.scale import PRESETS
from repro.experiments.store import ResultStore
from repro.federated.algorithms import ALGORITHM_NAMES
from repro.federated.algorithms.fedprox import DEFAULT_MU
from repro.federated.executor import EXECUTORS
from repro.partition import parse_strategy, stats
from repro.spec import RunSpec, overridable_names


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="NIID-Bench reproduction: federated learning on non-IID silos",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="run one federated experiment")
    _add_experiment_args(run)
    run.add_argument(
        "--print-spec", action="store_true",
        help="print the resolved RunSpec as JSON and exit without training",
    )
    run.add_argument(
        "--resume", default=None, metavar="CHECKPOINT",
        help="resume a run from this checkpoint file",
    )
    run.add_argument(
        "--plot", action="store_true", help="render an ASCII accuracy chart"
    )

    trials = commands.add_parser("trials", help="mean +- std over repeated seeds")
    _add_experiment_args(trials)
    trials.add_argument("-n", "--num-trials", type=int, default=3)
    trials.add_argument(
        "--store", default=None, metavar="DIR",
        help="ResultStore directory: completed trials are read back, "
             "fresh ones saved",
    )
    trials.add_argument(
        "--jobs", type=_positive_int, default=1, metavar="N",
        help="worker processes claiming trials through the crash-safe "
             "scheduler (1 = run inline)",
    )

    report = commands.add_parser(
        "partition-report", help="partition a dataset and print skew statistics"
    )
    report.add_argument("--dataset", required=True, choices=DATASET_NAMES)
    report.add_argument("--partition", required=True)
    report.add_argument("--n-parties", type=int, default=None)
    report.add_argument("--n-train", type=int, default=None)
    report.add_argument("--init-seed", type=int, default=0)

    recommend = commands.add_parser(
        "recommend", help="Figure 6 decision tree: best algorithm for a setting"
    )
    recommend.add_argument("--partition", required=True)

    commands.add_parser(
        "list", help="list every registered component (datasets, partitions, "
        "models, algorithms, codecs)"
    )

    table3 = commands.add_parser(
        "table3", help="run a slice of the paper's Table 3 matrix"
    )
    table3.add_argument("--datasets", nargs="*", default=None, choices=DATASET_NAMES)
    table3.add_argument("--partitions", nargs="*", default=None)
    table3.add_argument(
        "--algs", nargs="*", default=list(ALGORITHM_NAMES[:4]), choices=ALGORITHM_NAMES
    )
    table3.add_argument("--preset", default="smoke", choices=sorted(PRESETS))
    table3.add_argument("-n", "--num-trials", type=int, default=1)
    table3.add_argument("--init-seed", type=int, default=0)
    table3.add_argument(
        "--store", default=None, metavar="DIR",
        help="ResultStore directory: completed cells are read back, fresh "
             "ones saved — a killed matrix resumes where it stopped",
    )
    table3.add_argument(
        "--jobs", type=_positive_int, default=1, metavar="N",
        help="worker processes claiming matrix cells through the "
             "crash-safe scheduler; kill -9 anything mid-run and "
             "re-invoking completes the matrix (1 = run inline)",
    )
    return parser


def _positive_int(text: str) -> int:
    """``--jobs`` parser: a bad count is a usage error, before any spec."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _add_experiment_args(parser: argparse.ArgumentParser) -> None:
    """Flags of the experiment commands.

    A knob flag contributes its spelling and help text only: it parses
    to ``None`` when absent and is stored under the flat override name
    it feeds (``dest``), so defaults live on the :mod:`repro.spec`
    sections alone and :func:`_build_kwargs` needs no per-knob line.
    """
    parser.add_argument(
        "--spec", default=None, metavar="FILE",
        help="load the full RunSpec from this JSON file instead of flags "
             "(--dataset/--partition/--alg are then not required)",
    )
    parser.add_argument(
        "--preset", choices=sorted(PRESETS),
        help="scale preset for sizes/rounds; individual flags win",
    )

    parser.add_argument("--dataset", choices=DATASET_NAMES)
    parser.add_argument("--partition", help='e.g. "iid", "#C=2", "dir(0.5)"')
    parser.add_argument("--alg", dest="algorithm", choices=ALGORITHM_NAMES)
    parser.add_argument("--model")
    parser.add_argument("--n-parties", dest="num_parties", type=int)
    parser.add_argument("--comm-round", dest="num_rounds", type=int, help="rounds T")
    parser.add_argument("--epochs", dest="local_epochs", type=int, help="local epochs E")
    parser.add_argument("--batch-size", type=int)
    parser.add_argument("--lr", type=float)
    parser.add_argument(
        "--mu", type=float, default=DEFAULT_MU, help="FedProx mu (fedprox only)"
    )
    parser.add_argument(
        "--optimizer", choices=("sgd", "adam", "amsgrad"),
        help="local optimizer (NIID-Bench's --optimizer)",
    )
    parser.add_argument(
        "--sample", dest="sample_fraction", type=float,
        help="party fraction per round",
    )
    parser.add_argument(
        "--executor", choices=EXECUTORS.names(),
        help="client-execution backend (results are identical either way)",
    )
    parser.add_argument(
        "--stack-size", type=int,
        help="clients per batched replay stack for --executor=stacked",
    )
    parser.add_argument(
        "--party-sampler", dest="sampler", choices=("uniform", "stratified"),
        help="party sampling policy under partial participation",
    )
    parser.add_argument(
        "--codec", choices=CODEC_NAMES,
        help="update-compression codec for both transport directions",
    )
    parser.add_argument(
        "--codec-bits", type=int, help="bit width for the qsgd codec (1-16)"
    )
    parser.add_argument(
        "--codec-k", type=float,
        help="kept fraction in (0, 1] for the topk/randk codecs",
    )
    parser.add_argument(
        "--dropout-prob", type=float,
        help="per-party per-round probability of dropping out",
    )
    parser.add_argument(
        "--straggler-prob", type=float,
        help="per-party per-round probability of running slow",
    )
    parser.add_argument(
        "--straggler-factor", type=float,
        help="straggler slowdown multiple (>= 1; fault-free round = 1.0)",
    )
    parser.add_argument(
        "--crash-prob", type=float,
        help="per-party per-round probability of crashing mid-training",
    )
    parser.add_argument(
        "--deadline", type=float,
        help="round deadline in fault-free-round units; stragglers "
             "slower than this are dropped before dispatch",
    )
    parser.add_argument(
        "--checkpoint-every", type=int,
        help="write a run checkpoint every k rounds (0 = never)",
    )
    parser.add_argument(
        "--checkpoint-path", help="where periodic checkpoints are written"
    )
    parser.add_argument(
        "--compile", action=argparse.BooleanOptionalAction,
        help="capture & replay training steps (bitwise-identical, faster)",
    )
    parser.add_argument(
        "--population", type=int, metavar="N",
        help="virtual federation of N lazily-derived parties (flat memory; "
             "--partition is then ignored; --dataset/--alg default to "
             "mnist/fedavg)",
    )
    parser.add_argument(
        "--sample-per-round", type=int, metavar="K",
        help="cohort size: parties concurrently in flight per round "
             "(default: --sample fraction of the population)",
    )
    parser.add_argument(
        "--samples-per-client", type=int,
        help="local dataset size per virtual party",
    )
    parser.add_argument(
        "--population-skew-beta", type=float,
        help="Dirichlet(beta) label skew for virtual parties (default iid)",
    )
    parser.add_argument(
        "--aggregation", choices=("sync", "async"),
        help="sync barrier rounds, or FedBuff-style buffered async over "
             "the virtual clock",
    )
    parser.add_argument(
        "--buffer-size", type=int, metavar="M",
        help="async buffer: aggregate after M arrivals (default: the "
             "cohort, i.e. an exact synchronous barrier)",
    )
    parser.add_argument(
        "--staleness-exponent", type=float,
        help="discount stale async updates by (1+staleness)^-a",
    )
    parser.add_argument("--init-seed", dest="seed", type=int)


def _build_kwargs(args) -> dict:
    """Flags -> ``RunSpec.build`` keywords: every knob flag the user gave.

    A parsed attribute is a knob when its name is a flat override name.
    """
    names = overridable_names()
    kwargs = {
        name: value
        for name, value in vars(args).items()
        if name in names and value is not None
    }
    if kwargs.get("algorithm") != "fedprox":
        kwargs.pop("mu", None)
    return kwargs


def _spec_from_args(args) -> RunSpec:
    """Resolve an experiment command's arguments into a validated RunSpec."""
    if args.spec is not None:
        with open(args.spec) as handle:
            return RunSpec.from_dict(json.load(handle)).validate()
    kwargs = _build_kwargs(args)
    if args.population is not None:
        # A virtual population derives party data itself, so the bare
        # `repro run --population N --aggregation async` works: default
        # the cell key instead of demanding flags the run ignores.
        kwargs = {
            "dataset": "mnist", "partition": "iid", "algorithm": "fedavg", **kwargs
        }
    missing = [
        flag
        for flag, name in (
            ("--dataset", "dataset"),
            ("--partition", "partition"),
            ("--alg", "algorithm"),
        )
        if name not in kwargs
    ]
    if missing:
        raise SystemExit(
            f"error: {' / '.join(missing)} required (or pass --spec FILE)"
        )
    return RunSpec.build(preset=PRESETS.get(args.preset), **kwargs).validate()


def cmd_run(args) -> int:
    spec = _spec_from_args(args)
    if args.print_spec:
        print(spec.to_json())
        print(f"run_id: {spec.run_id()}", file=sys.stderr)
        return 0
    outcome = run_spec(spec, resume=args.resume)
    for record in outcome.history.records:
        accuracy = "-" if record.test_accuracy is None else f"{record.test_accuracy:.4f}"
        line = (
            f"round {record.round_index:3d}  acc {accuracy}  "
            f"loss {record.train_loss:.4f}  parties {len(record.participants)}"
        )
        if record.dropped:
            line += f"  dropped {len(record.dropped)}"
        print(line)
    total_dropped = int(outcome.history.dropped_counts.sum())
    if total_dropped:
        print(f"dropped parties: {total_dropped} across the run")
    print(f"run id: {spec.run_id()}")
    print(f"final accuracy: {outcome.final_accuracy:.4f}")
    print(f"best accuracy:  {outcome.best_accuracy:.4f}")
    mb = outcome.history.cumulative_communication()[-1] / 1e6
    print(f"communication:  {mb:.1f} MB")
    if args.plot:
        from repro.experiments.plotting import line_chart

        rounds, accuracies = outcome.history.curve()
        print()
        print(line_chart({outcome.algorithm: accuracies}))
    return 0


def _open_store(args):
    """The ``--store DIR`` ResultStore, or None when the flag is absent."""
    return ResultStore(args.store) if args.store is not None else None


def cmd_trials(args) -> int:
    spec = _spec_from_args(args)
    # One checkpoint file cannot serve several seeds; trials run clean.
    spec = spec.with_overrides(checkpoint_every=0, checkpoint_path=None)
    summary = run_trials(
        num_trials=args.num_trials,
        base_seed=spec.seed,
        store=_open_store(args),
        spec=spec,
        jobs=args.jobs,
    )
    print(
        f"{spec.data.name} / {spec.partition.strategy} / "
        f"{spec.algorithm.name}: {summary.format_cell()}"
    )
    return 0


def cmd_partition_report(args) -> int:
    kwargs = {}
    if args.n_train is not None:
        kwargs["n_train"] = args.n_train
    train, _, info = load_dataset(args.dataset, seed=args.init_seed, **kwargs)
    partitioner = parse_strategy(args.partition)
    num_parties = args.n_parties or partitioner.default_num_parties
    partition = partitioner.partition(
        train, num_parties, np.random.default_rng(args.init_seed)
    )
    print(stats.report(partition, train.labels, info.num_classes).to_text())
    return 0


def cmd_recommend(args) -> int:
    print(recommend_algorithm(args.partition))
    return 0


def cmd_list(args) -> int:
    """Print every registered component straight from the registries."""
    from repro.comm.codecs import CODECS
    from repro.data.registry import DATASETS
    from repro.federated.algorithms import ALGORITHMS
    from repro.models.registry import MODELS
    from repro.partition.registry import PARTITIONS

    for registry in (DATASETS, PARTITIONS, MODELS, ALGORITHMS, CODECS, EXECUTORS):
        title = registry.kind if registry.kind.endswith("y") else f"{registry.kind}s"
        print(f"{title}:")
        for entry in registry.entries():
            summary = f"  {entry.summary}" if entry.summary else ""
            print(f"  {entry.name:16s}{summary}")
        print()
    return 0


def cmd_table3(args) -> int:
    from repro.experiments.table3 import run_table3

    def progress(dataset, partition, algorithm, summary):
        print(f"{dataset} / {partition} / {algorithm}: {summary.format_cell()}")

    board = run_table3(
        datasets=args.datasets,
        partitions=args.partitions,
        algorithms=tuple(args.algs),
        preset=PRESETS[args.preset],
        num_trials=args.num_trials,
        base_seed=args.init_seed,
        store=_open_store(args),
        progress=progress,
        jobs=args.jobs,
    )
    print()
    print(board.render())
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "run": cmd_run,
        "trials": cmd_trials,
        "partition-report": cmd_partition_report,
        "recommend": cmd_recommend,
        "list": cmd_list,
        "table3": cmd_table3,
    }[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
