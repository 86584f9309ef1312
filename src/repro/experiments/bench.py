"""Micro-benchmarks for the training hot paths.

The timing that matters most for this repo's wall-clock budget is **one
CNN local round** — the inner loop every federated experiment spends
~95% of its time in (im2col convolutions + fused cross-entropy + SGD
steps).  This is the number the allocation-cutting work in
:mod:`repro.grad.functional` moves.  (A whole federated round is timed
end to end by ``benchmarks/e2e``: ``server.run_round_s`` on the
``cell_cnn`` and ``rounds_mlp`` workloads.)

The other sections time the compiled and stacked training steps, the
two-pass vs fused evaluation of the bench CNN, per-codec encode/decode
throughput of :mod:`repro.comm` on a model-sized vector, and the async
engine's wall time and peak RSS as its population grows.  (Bytes on the
wire per codec, accuracy under dropout and the async buffer-size
trade-off are experiments, not timings: a
:func:`~repro.experiments.sweeps.sweep` over codec, ``dropout_prob`` or
``buffer_size`` points.)

Run as ``python -m repro.experiments.bench`` (or ``make bench`` /
``repro-bench``); results land in ``BENCH_core.json`` together with
the host's hardware context.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from pathlib import Path

import numpy as np

from repro.data import load_dataset
from repro.experiments.scheduler import fork_available
from repro.federated import (
    FederatedConfig,
    evaluate,
    make_clients,
)
from repro.federated.trainer import run_local_training
from repro.grad import functional as F
from repro.grad.capture import training_engine
from repro.grad.optim import SGD
from repro.grad.tensor import Tensor
from repro.models import build_model
from repro.partition import HomogeneousPartitioner

DEFAULT_OUTPUT = "BENCH_core.json"


def _build_fixture(seed: int = 0, n_train: int = 640, num_parties: int = 10):
    """Small CNN/MNIST-like federated setup shared by both benchmarks."""
    train, _, info = load_dataset("mnist", n_train=n_train, n_test=64, seed=seed)
    partition = HomogeneousPartitioner().partition(
        train, num_parties, np.random.default_rng(seed + 17)
    )
    clients = make_clients(partition, train, seed=seed + 29)
    model = build_model("cnn", info, seed=seed + 53)
    return model, clients


def _time(fn, repeats: int) -> float:
    """Best-of-``repeats`` wall time; best-of filters scheduler noise."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _duel(fns, repeats: int) -> list[float]:
    """Best-of-``repeats`` wall time for each ``fn``, interleaved.

    Comparative benchmarks must not time one path's repeats back to back
    and then the other's: on a shared host, background load drifts over
    seconds, and whichever path runs second absorbs a different machine.
    Alternating the paths within every repeat round exposes both to the
    same drift, so the per-path minima are actually comparable.
    """
    best = [float("inf")] * len(fns)
    for _ in range(repeats):
        for index, fn in enumerate(fns):
            start = time.perf_counter()
            fn()
            best[index] = min(best[index], time.perf_counter() - start)
    return best


def bench_local_round(repeats: int = 3, seed: int = 0) -> dict:
    """Time one party's local training round on the paper CNN."""
    model, clients = _build_fixture(seed=seed)
    config = FederatedConfig(
        num_rounds=1, local_epochs=1, batch_size=32, lr=0.01, seed=0
    )
    client = clients[0]
    state = model.state_dict()

    def one_round():
        model.load_state_dict(state)
        return run_local_training(model, client, config)

    warm = one_round()  # warm-up: also reports the step count
    seconds = _time(one_round, repeats)
    return {
        "seconds": round(seconds, 4),
        "num_steps": warm.num_steps,
        "num_samples": warm.num_samples,
        "seconds_per_step": round(seconds / max(warm.num_steps, 1), 4),
    }


def _step_fixture(name: str, seed: int = 0, batch_size: int = 32):
    """A (model, features, labels) triple for the step benchmarks."""
    _, _, info = load_dataset("mnist", n_train=64, n_test=16, seed=seed)
    model = build_model(name, info, seed=seed + 53)
    rng = np.random.default_rng(seed + 5)
    shape = (batch_size, *info.input_shape)
    if name in ("mlp", "logistic"):
        shape = (batch_size, info.num_features)
    features = rng.standard_normal(shape).astype(np.float32)
    labels = rng.integers(0, info.num_classes, size=batch_size)
    return model, features, labels


def _alloc_stats(fn) -> tuple[int, int]:
    """(peak traced bytes, allocation block count) of one call to ``fn``."""
    import gc
    import tracemalloc

    gc.collect()
    tracemalloc.start()
    try:
        fn()
        snapshot = tracemalloc.take_snapshot()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    blocks = sum(stat.count for stat in snapshot.statistics("filename"))
    return peak, blocks


def bench_compiled_step(
    repeats: int = 3, seed: int = 0, steps: int = 20
) -> list[dict]:
    """Eager vs captured-replay training steps (see repro.grad.capture).

    Times ``steps`` full SGD steps both ways on the paper MLP and CNN,
    and records tracemalloc peak bytes / allocation counts for a single
    step — the replay path's whole point is reusing its kept buffers
    instead of re-allocating the graph every step.
    """
    rows = []
    for name in ("mlp", "cnn"):

        def make_runner(compiled):
            model, features, labels = _step_fixture(name, seed=seed)
            model.train()
            optimizer = SGD(model.parameters(), lr=0.01, momentum=0.9)
            engine = training_engine(model) if compiled else None

            def one_step():
                optimizer.zero_grad()
                loss_value = (
                    engine.step(features, labels) if engine is not None else None
                )
                if loss_value is None:
                    loss = F.cross_entropy(model(Tensor(features)), labels)
                    loss.backward()
                    loss_value = loss.item()
                optimizer.step()
                return loss_value

            one_step()  # warm-up: the capture step (or eager cache fills)
            return one_step

        eager_step = make_runner(False)
        replay_step = make_runner(True)

        def run_many(step_fn):
            return lambda: [step_fn() for _ in range(steps)]

        eager_s, replay_s = (
            t / steps
            for t in _duel([run_many(eager_step), run_many(replay_step)], repeats)
        )
        eager_peak, eager_blocks = _alloc_stats(eager_step)
        replay_peak, replay_blocks = _alloc_stats(replay_step)
        rows.append(
            {
                "model": name,
                "eager_seconds_per_step": round(eager_s, 6),
                "compiled_seconds_per_step": round(replay_s, 6),
                "speedup": round(eager_s / replay_s, 2) if replay_s > 0 else None,
                "eager_alloc_peak_bytes": eager_peak,
                "compiled_alloc_peak_bytes": replay_peak,
                "eager_alloc_blocks": eager_blocks,
                "compiled_alloc_blocks": replay_blocks,
            }
        )
    return rows


#: stack sizes benchmarked; 1 is the serial compiled-replay baseline
BENCH_STACK_SIZES = (1, 4, 16, 64)


def bench_stacked_replay(
    repeats: int = 3,
    seed: int = 0,
    steps: int = 10,
    stack_sizes: tuple[int, ...] = BENCH_STACK_SIZES,
) -> list[dict]:
    """Per-client cost of batched stacked replay vs serial compiled replay.

    For each model, times ``steps`` full SGD steps at every stack size
    ``K`` — ``K = 1`` is the serial captured-replay fast path, ``K >= 2``
    the :class:`~repro.grad.capture.StackedStep` program driving ``K``
    clients through one set of fat NumPy ops — and reports seconds per
    step *per client* (duel time / steps / K).  The win is amortized
    dispatch: per-op Python/NumPy overhead is paid once per stack instead
    of once per client, so per-client cost should fall as ``K`` grows
    until the fat operands saturate memory bandwidth.
    """
    from repro.grad.capture import CaptureError, stacked_engine
    from repro.grad.optim import StackedSGD

    rows = []
    for name in ("mlp", "cnn"):

        def make_serial_runner():
            model, features, labels = _step_fixture(name, seed=seed)
            model.train()
            optimizer = SGD(model.parameters(), lr=0.01, momentum=0.9)
            engine = training_engine(model)

            def one_step():
                optimizer.zero_grad()
                engine.step(features, labels)
                optimizer.step()

            one_step()  # warm-up: the capture step
            return one_step

        def make_stacked_runner(stack):
            model, features, labels = _step_fixture(name, seed=seed)
            try:
                program = stacked_engine(model).program(
                    stack,
                    np.zeros_like(features),
                    np.zeros(labels.shape, np.int64),
                )
            except CaptureError:
                return None
            state = model.state_dict()
            keys = [key for key, _ in model.named_parameters()]
            stacks = [program.param_stack(i) for i in range(len(keys))]
            for index, key in enumerate(keys):
                if stacks[index] is not None:
                    stacks[index][:] = state[key]
            optimizer = StackedSGD(stacks, lr=0.01, momentum=0.9)

            def one_step():
                # Bill the per-client batch staging too — the executor
                # pays it every step, so leaving it out would flatter
                # large stacks.
                for k in range(stack):
                    program.features[k] = features
                    program.labels[k] = labels
                program.step()
                optimizer.step(program.grads())

            one_step()  # warm-up
            return one_step

        runners = []
        for stack in stack_sizes:
            runner = make_serial_runner() if stack == 1 else make_stacked_runner(stack)
            if runner is not None:
                runners.append((stack, runner))

        def run_many(step_fn):
            return lambda: [step_fn() for _ in range(steps)]

        times = _duel([run_many(fn) for _, fn in runners], repeats)
        serial_per_client = None
        for (stack, _), seconds in zip(runners, times):
            per_client = seconds / steps / stack
            if stack == 1:
                serial_per_client = per_client
            rows.append(
                {
                    "model": name,
                    "stack_size": stack,
                    "seconds_per_step": round(seconds / steps, 6),
                    "per_client_seconds_per_step": round(per_client, 6),
                    "speedup_vs_serial": (
                        round(serial_per_client / per_client, 2)
                        if serial_per_client and per_client > 0
                        else None
                    ),
                }
            )
    return rows


def bench_eval_fastpath(repeats: int = 3, seed: int = 0, n_test: int = 512) -> dict:
    """Two-pass vs fused vs captured-replay evaluation of the bench CNN."""
    _, test, info = load_dataset("mnist", n_train=64, n_test=n_test, seed=seed)
    model = build_model("cnn", info, seed=seed + 53)

    def two_pass():
        # The pre-fusion server cost: separate accuracy and loss passes.
        return evaluate(model, test).accuracy, evaluate(model, test).loss

    def fused():
        return evaluate(model, test)

    def fused_compiled():
        return evaluate(model, test, compiled=True)

    fused_compiled()  # warm-up: captures the inference program
    two_pass_s, fused_s, compiled_s = _duel(
        [two_pass, fused, fused_compiled], repeats
    )
    return {
        "num_samples": n_test,
        "two_pass_seconds": round(two_pass_s, 5),
        "fused_seconds": round(fused_s, 5),
        "fused_compiled_seconds": round(compiled_s, 5),
        "speedup_fused_vs_two_pass": round(two_pass_s / fused_s, 2),
        "speedup_compiled_vs_two_pass": round(two_pass_s / compiled_s, 2),
    }


#: codec configurations benchmarked, mirroring the sweep's default ladder
BENCH_CODECS = (
    {"codec": "identity"},
    {"codec": "float16"},
    {"codec": "qsgd", "codec_bits": 4},
    {"codec": "qsgd", "codec_bits": 8},
    {"codec": "topk", "codec_k": 0.1},
    {"codec": "randk", "codec_k": 0.1},
)


def _codec_label(spec: dict) -> str:
    name = spec["codec"]
    if name == "qsgd":
        return f"qsgd{spec['codec_bits']}"
    if name in ("topk", "randk"):
        return f"{name}{spec['codec_k']:g}"
    return name


def bench_codecs(size: int = 131072, repeats: int = 3, seed: int = 0) -> list[dict]:
    """Encode/decode throughput and wire size per codec on a dense vector.

    ``size`` defaults to the order of the bench CNN's parameter count so
    the timings predict real per-client encode cost.
    """
    from repro.comm import FLOAT_BYTES, make_codec

    rng = np.random.default_rng(seed)
    vector = rng.standard_normal(size).astype(np.float32)
    rows = []
    for spec in BENCH_CODECS:
        codec = make_codec(
            spec["codec"],
            bits=spec.get("codec_bits", 8),
            k=spec.get("codec_k", 0.1),
        )
        codec_rng = np.random.default_rng(seed + 1)
        payload = codec.encode(vector, rng=codec_rng)
        encode_s = _time(lambda: codec.encode(vector, rng=codec_rng), repeats)
        decode_s = _time(lambda: codec.decode(payload), repeats)
        rows.append(
            {
                "codec": _codec_label(spec),
                "encode_seconds": round(encode_s, 5),
                "decode_seconds": round(decode_s, 5),
                "encode_mfloats_per_s": round(size / encode_s / 1e6, 1),
                "nbytes": payload.nbytes,
                "ratio_vs_float32": round(
                    payload.nbytes / (FLOAT_BYTES * size), 4
                ),
            }
        )
    return rows


#: population sizes for the flat-memory scaling column (fixed cohort)
BENCH_POPULATION_SIZES = (1_000, 100_000, 1_000_000)

#: the child process measuring one population point's peak RSS —
#: measuring in-process would fold every previously-run benchmark's
#: allocations into the peak.  It reads its own VmHWM: on Linux
#: ru_maxrss survives fork+exec, so it would report the bench parent's
#: peak instead (ru_maxrss is the fallback where /proc is absent).
_ASYNC_CHILD = """
import json, resource, sys, time
from repro.spec import RunSpec
from repro.experiments.runner import run_spec
from repro.experiments.scale import SMOKE

size, cohort, rounds, seed = (int(a) for a in sys.argv[1:5])
spec = RunSpec.build(
    "mnist", "iid", "fedavg", preset=SMOKE, population=size,
    sample_per_round=cohort, aggregation="async", num_rounds=rounds,
    seed=seed,
)
start = time.perf_counter()
outcome = run_spec(spec)
wall = time.perf_counter() - start
try:
    with open("/proc/self/status") as status:
        (hwm,) = (line for line in status if line.startswith("VmHWM:"))
    peak_kb = int(hwm.split()[1])
except (OSError, ValueError):
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({
    "wall_seconds": wall,
    "peak_rss_mb": peak_kb / 1024.0,
    "final_accuracy": outcome.final_accuracy,
}))
"""


def bench_async_engine(
    seed: int = 0,
    smoke: bool = False,
    cohort: int = 32,
    num_rounds: int = 2,
    populations: tuple[int, ...] = BENCH_POPULATION_SIZES,
) -> dict:
    """Flat-memory scaling of the async engine.

    ``scaling`` holds the wall time and peak RSS of a full async run at a
    fixed cohort while the population grows 1k -> 100k -> 1M.  Each point
    runs in a fresh subprocess so its peak RSS reflects that run alone;
    the flat-memory claim is RSS staying put while the population grows
    three orders of magnitude.  (The buffer-size trade-off is an
    experiment, not a timing: a :func:`~repro.experiments.sweeps.sweep`
    over ``buffer_size`` points.)
    """
    import subprocess
    import sys

    if smoke:
        populations = tuple(p for p in populations if p <= 100_000)
        cohort, num_rounds = 8, 1

    scaling = []
    for size in populations:
        out = subprocess.run(
            [sys.executable, "-c", _ASYNC_CHILD,
             str(size), str(cohort), str(num_rounds), str(seed)],
            capture_output=True, text=True, check=True,
        )
        point = json.loads(out.stdout.strip().splitlines()[-1])
        scaling.append(
            {
                "population": size,
                "cohort": cohort,
                "num_rounds": num_rounds,
                "wall_seconds": round(point["wall_seconds"], 3),
                "peak_rss_mb": round(point["peak_rss_mb"], 1),
            }
        )

    return {"scaling": scaling}


def run_benchmarks(
    repeats: int = 2,
    seed: int = 0,
    smoke: bool = False,
) -> dict:
    """Run all micro-benchmarks and return the report dict.

    ``smoke`` shrinks every section to a seconds-scale sanity pass —
    enough to prove the benchmarks run, not to produce stable numbers.
    """
    if smoke:
        repeats = 1
    return {
        "schema": 1,
        "suite": "repro.experiments.bench",
        "hardware": {
            "cpu_count": os.cpu_count() or 1,
            "machine": platform.machine(),
            "system": platform.system(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "fork_available": fork_available(),
        },
        "local_round": bench_local_round(
            repeats=repeats if smoke else max(repeats, 3), seed=seed
        ),
        # More duel rounds than elsewhere: the eager/replay ratio is the
        # headline number and each interleaved round is only ~1s.
        "compiled_step": bench_compiled_step(
            repeats=repeats if smoke else max(repeats, 8),
            seed=seed,
            steps=5 if smoke else 20,
        ),
        "stacked_replay": bench_stacked_replay(
            repeats=repeats if smoke else max(repeats, 5),
            seed=seed,
            steps=3 if smoke else 10,
            stack_sizes=(1, 4) if smoke else BENCH_STACK_SIZES,
        ),
        "eval_fastpath": bench_eval_fastpath(
            repeats=repeats if smoke else max(repeats, 3),
            seed=seed,
            n_test=128 if smoke else 512,
        ),
        "codec_throughput": bench_codecs(
            repeats=repeats if smoke else max(repeats, 3), seed=seed
        ),
        "async_engine": bench_async_engine(seed=seed, smoke=smoke),
    }


#: wall-time regression tolerance for --check-baseline: smoke runs use
#: best-of-1 timings on a shared host, so only a multiple-of-baseline
#: slowdown is a signal rather than noise.
BASELINE_TOLERANCE = 2.5


def check_baseline(report: dict, baseline: dict, tolerance: float = BASELINE_TOLERANCE):
    """Wall-time regressions of ``report`` vs a committed baseline.

    Compares the hot-path timings — ``compiled_step`` seconds per step
    and ``stacked_replay`` seconds per step — row by row, and returns a
    list of violation strings (empty = no regression beyond
    ``tolerance``x the committed number).
    """
    problems = []

    def compare(section, key_fields, value_field):
        old_rows = {
            tuple(row[field] for field in key_fields): row
            for row in baseline.get(section, [])
        }
        for row in report.get(section, []):
            key = tuple(row[field] for field in key_fields)
            old = old_rows.get(key)
            if old is None:
                continue
            now, then = row[value_field], old[value_field]
            if then > 0 and now > then * tolerance:
                label = "/".join(str(part) for part in key)
                problems.append(
                    f"{section}[{label}].{value_field}: {now:.6f}s vs "
                    f"baseline {then:.6f}s (tolerance {tolerance:g}x)"
                )

    compare("compiled_step", ("model",), "compiled_seconds_per_step")
    compare("stacked_replay", ("model", "stack_size"), "seconds_per_step")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output", default=DEFAULT_OUTPUT, help="where to write the JSON report"
    )
    parser.add_argument(
        "--check-baseline", default=None, metavar="JSON",
        help="fail if compiled_step/stacked_replay wall times regress "
             f"beyond {BASELINE_TOLERANCE:g}x this committed report",
    )
    parser.add_argument(
        "--repeats", type=int, default=2, help="timing repeats (best-of)"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="seconds-scale sanity run (small sizes)",
    )
    args = parser.parse_args(argv)
    report = run_benchmarks(repeats=args.repeats, smoke=args.smoke)
    Path(args.output).write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    if args.check_baseline is not None:
        baseline = json.loads(Path(args.check_baseline).read_text())
        problems = check_baseline(report, baseline)
        for problem in problems:
            print(f"BASELINE REGRESSION: {problem}")
        if problems:
            return 1
        print(f"baseline check OK ({args.check_baseline})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
