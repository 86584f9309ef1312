#!/usr/bin/env python3
"""End-to-end benchmark of the repro federated-learning stack.

One run (what the benchmark driver calls; prints one JSON object last)::

    python3 benchmarks/e2e/run.py --workload cell_cnn --seed 1 --seconds 30 --trace 0

The whole suite: every workload ``--repeats`` times untraced plus once
traced, each in a fresh interpreter, one at a time::

    python3 benchmarks/e2e/run.py [--seed N] [--repeats N] [--workload NAME] [--out FILE]

and ``compare A.json B.json``, ``spread`` and ``manifest``; see README.md.

This parent process never imports ``repro`` or numpy: it spawns
``child.py`` with ``PYTHONPATH=src``, stamps the spawn on the system-wide
monotonic clock, and derives the end-to-end metrics from what the child
reports.  BLAS/OMP thread variables are passed through untouched and
recorded, not set: the program is measured as a user runs it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import compare
import environment
from metrics import END_TO_END, PER_LAYER, REPORT_ONLY
from workloads import NOMINAL_SECONDS, WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
SCRATCH_ROOT = ROOT / ".bench_e2e"
DEFAULT_OUT = HERE / "baseline.json"

#: set-up is ~0.5 s of a ~25 s run, so one run times it this many times
#: (spare children that stop at *ready*, plus the measured child) and
#: reports the median
SETUP_SAMPLES = 5
#: the driver allows a run 180 s in all
CHILD_TIMEOUT_S = 150


class ChildFailed(RuntimeError):
    """The fresh interpreter exited non-zero, hung, or wrote no result."""


def _spawn(workload: Workload, seed: int, scale: float, trace: bool,
           scratch: Path, setup_only: bool) -> tuple[float, dict]:
    """Run ``child.py`` once; returns ``(spawn stamp, its result)``."""
    scratch.mkdir(parents=True)
    result_path = scratch / "result.json"
    command = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload.name, "--seed", str(seed), "--scale", repr(scale),
        "--trace", str(int(trace)), "--scratch", str(scratch),
        "--result", str(result_path),
    ]
    if setup_only:
        command.append("--setup-only")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(SRC), env.get("PYTHONPATH")) if part
    )
    spawned = time.monotonic()
    # Own session: a hung child's forked scheduler workers die with it.
    process = subprocess.Popen(
        command, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, start_new_session=True,
    )
    try:
        output, _ = process.communicate(timeout=CHILD_TIMEOUT_S)
    except BaseException as error:  # timeout or interrupt: leave nothing running
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        if not isinstance(error, subprocess.TimeoutExpired):
            raise
        output = f"no result within {CHILD_TIMEOUT_S} s"
    if process.returncode != 0 or not result_path.exists():
        raise ChildFailed(
            f"{workload.name} child exited {process.returncode}:\n{output.strip()}"
        )
    return spawned, json.loads(result_path.read_text())


def measure(workload: Workload, seed: int, scale: float, trace: bool,
            setup_samples: int = 1) -> dict:
    """One measured run of ``workload`` plus ``setup_samples - 1`` set-up probes."""
    scratch = SCRATCH_ROOT / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    setups = []
    try:
        for probe in range(setup_samples - 1):
            spawned, result = _spawn(
                workload, seed, scale, False, scratch / f"setup{probe}", True
            )
            setups.append(result["ready"] - spawned)
        spawned, result = _spawn(workload, seed, scale, trace, scratch / "run", False)
        setups.append(result["ready"] - spawned)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            SCRATCH_ROOT.rmdir()
        except OSError:
            pass  # another run is using it
    failures = result["check_failures"]
    return {
        "end_to_end": {
            "setup_s": statistics.median(setups),
            "wall_s": result["wall_s"],
            "local_steps_per_s": result["local_steps"] / result["wall_s"],
            "peak_rss_mb": max(result["vm_hwm_kb"], result["children_maxrss_kb"]) / 1024,
        },
        "per_layer": result.get("per_layer"),
        # Ops: client updates dispatched, cells attempted, and this run.
        "attempted": result["parties_attempted"] + workload.cells + 1,
        "failed": (
            result["parties_failed"] + result["fallback_rounds"]
            + result["cells_failed"] + bool(failures)
        ),
        "check_failures": failures,
        "setup_samples": setups,
        "history_sha256": result["history_sha256"],
        "final_accuracy": result["final_accuracy"],
        "local_steps": result["local_steps"],
        "numeric": result["numeric"],
    }


def _print_metrics(values: dict, table) -> None:
    for metric in table:
        if metric.name in values:
            print(f"  {metric.name:<32} {values[metric.name]:>16.6f} {metric.unit}")


# -- one run, for the benchmark driver -------------------------------------


def cmd_driver(args) -> int:
    workload = WORKLOADS[args.workload]
    run = measure(
        workload, args.seed, args.seconds / NOMINAL_SECONDS, bool(args.trace),
        setup_samples=1 if args.trace else SETUP_SAMPLES,
    )
    table = PER_LAYER if args.trace else END_TO_END
    values = run["per_layer"] if args.trace else run["end_to_end"]
    print(f"{workload.name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    _print_metrics(values, table)
    for failure in run["check_failures"]:
        print(f"  CHECK FAILED: {failure}")
    print(
        json.dumps(
            {
                "correct": run["failed"] == 0,
                "attempted": run["attempted"],
                "failed": run["failed"],
                "metrics": {
                    m.name: {"value": values[m.name], "unit": m.unit} for m in table
                },
            }
        )
    )
    return 0 if run["failed"] == 0 else 1


# -- the suite ---------------------------------------------------------------


def cmd_suite(args) -> int:
    names = [args.workload] if args.workload else list(WORKLOADS)
    scale = args.seconds / NOMINAL_SECONDS
    record = {
        "schema": 1,
        "environment": environment.host_record(),
        "seed": args.seed,
        "repeats": args.repeats,
        "scale": scale,
        "workloads": {},
    }
    ok = True
    for name in names:
        workload = WORKLOADS[name]
        runs, failures, attempted, failed = [], [], 0, 0
        for repeat in range(args.repeats + 1):
            traced = repeat == args.repeats
            try:
                run = measure(
                    workload, args.seed, scale, trace=traced,
                    setup_samples=1 if traced else SETUP_SAMPLES,
                )
            except ChildFailed as error:
                attempted += 1
                failed += 1
                failures.append(str(error))
                continue
            runs.append(run)
            attempted += run["attempted"]
            failed += run["failed"]
            failures.extend(run["check_failures"])
            print(
                f"{name} {'traced' if traced else f'repeat {repeat}'}: "
                f"wall_s={run['end_to_end']['wall_s']:.3f}", flush=True,
            )
        untraced = [run for run in runs if run["per_layer"] is None]
        traced_run = next((run for run in runs if run["per_layer"] is not None), None)
        hashes = {run["history_sha256"] for run in runs}
        if len(hashes) > 1:
            failed += 1
            failures.append(
                f"history_sha256 differs across repeats/traced run: {sorted(hashes)}"
            )
        entry = {
            "why": workload.why,
            "history_sha256": sorted(hashes)[0] if hashes else None,
            "ops_attempted": attempted,
            "ops_failed": failed,
            "check_failures": failures,
            "end_to_end": {},
            "per_layer": {},
        }
        if untraced:
            entry["final_accuracy"] = untraced[0]["final_accuracy"]
            entry["local_steps"] = untraced[0]["local_steps"]
            record["environment"].update(untraced[0]["numeric"])
            for metric in END_TO_END:
                samples = [run["end_to_end"][metric.name] for run in untraced]
                entry["end_to_end"][metric.name] = compare.sample_stats(samples)
        share = failed / attempted
        entry["end_to_end"]["failed_share"] = compare.sample_stats([share])
        if traced_run and untraced:
            overhead = (
                traced_run["end_to_end"]["wall_s"]
                / entry["end_to_end"]["wall_s"]["median"] - 1.0
            )
            entry["end_to_end"]["trace_overhead_ratio"] = compare.sample_stats([overhead])
            entry["per_layer"] = traced_run["per_layer"]
        record["workloads"][name] = entry
        ok = ok and failed == 0

        print(f"== {name}: {failed}/{attempted} ops failed")
        for metric in (*END_TO_END, *REPORT_ONLY):
            stats = entry["end_to_end"].get(metric.name)
            if stats:
                print(
                    f"  {metric.name:<32} {stats['median']:>16.6f} {metric.unit:<8} "
                    f"(min {stats['min']:.6f}, max {stats['max']:.6f}, n={stats['n']})"
                )
        _print_metrics(entry["per_layer"], PER_LAYER)
        for failure in failures:
            print(f"  CHECK FAILED: {failure}")
    if record["environment"]["noisy"]:
        print("warning: load average at start exceeded nproc; this set is marked noisy")
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0 if ok else 1


# -- compare, spread, manifest ------------------------------------------------


def cmd_compare(args) -> int:
    first = json.loads(args.first.read_text())
    second = json.loads(args.second.read_text())
    rows = compare.compare_results(first, second)
    print(compare.format_rows(rows))
    if args.record:
        first["two_sets"] = {
            "second_environment": second["environment"],
            "rows": rows,
        }
        args.record.write_text(json.dumps(first, indent=1) + "\n")
        print(f"wrote {args.record}")
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


def cmd_spread(args) -> int:
    """The driver's acceptance measure: one run per seed, IQR / median."""
    names = [args.workload] if args.workload else list(WORKLOADS)
    scale = args.seconds / NOMINAL_SECONDS
    out = {}
    ok = True
    for name in names:
        samples = {metric.name: [] for metric in END_TO_END}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            run = measure(WORKLOADS[name], seed, scale, False, SETUP_SAMPLES)
            ok = ok and run["failed"] == 0
            for failure in run["check_failures"]:
                print(f"  seed {seed} CHECK FAILED: {failure}")
            for metric in END_TO_END:
                samples[metric.name].append(run["end_to_end"][metric.name])
            print(f"{name} seed {seed}: " + " ".join(
                f"{m.name}={run['end_to_end'][m.name]:.4f}" for m in END_TO_END
            ), flush=True)
        out[name] = {}
        for metric in END_TO_END:
            share = compare.iqr_share(samples[metric.name])
            out[name][metric.name] = {
                "median": statistics.median(samples[metric.name]),
                "iqr_share": share,
                "bound": metric.bound,
            }
            print(
                f"  {name} {metric.name:<20} median {out[name][metric.name]['median']:.4f} "
                f"IQR/median {share:.4f} (bound {metric.bound}, "
                f"{'within a third' if share < metric.bound / 3 else 'WIDE'})"
            )
    if args.out:
        args.out.write_text(json.dumps(out, indent=1) + "\n")
    if args.record:
        record = json.loads(args.record.read_text())
        record["seed_spread"] = {"seeds": args.seeds, "first_seed": args.first_seed, **out}
        args.record.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if ok else 1


def manifest() -> dict:
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": NOMINAL_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }


def cmd_manifest(args) -> int:
    print(json.dumps(manifest(), indent=2))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=NOMINAL_SECONDS,
        help=f"work size: rounds scale by seconds/{NOMINAL_SECONDS} (fixed work, not a timer)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1),
        help="given: make one run and print its JSON (0 end-to-end, 1 per-layer)",
    )
    parser.add_argument("--repeats", type=int, default=3, help="untraced runs per workload")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    commands = parser.add_subparsers(dest="command")
    cmp_parser = commands.add_parser("compare", help="apply each metric's bound to two result files")
    cmp_parser.add_argument("first", type=Path)
    cmp_parser.add_argument("second", type=Path)
    cmp_parser.add_argument("--record", type=Path, help="write FIRST plus the rows here")
    spread_parser = commands.add_parser("spread", help="one run per seed; IQR/median per metric")
    spread_parser.add_argument("--workload", choices=list(WORKLOADS))
    spread_parser.add_argument("--seeds", type=int, default=10)
    spread_parser.add_argument("--first-seed", type=int, default=1)
    spread_parser.add_argument("--seconds", type=float, default=NOMINAL_SECONDS)
    spread_parser.add_argument("--out", type=Path)
    spread_parser.add_argument("--record", type=Path, help="add the result to this result file")
    commands.add_parser("manifest", help="print BENCHMARK.json from the metric tables")
    args = parser.parse_args(argv)

    if args.command == "compare":
        return cmd_compare(args)
    if args.command == "manifest":
        return cmd_manifest(args)
    if not SRC.is_dir():
        print(f"error: {SRC} not found; the benchmark measures the program under src/",
              file=sys.stderr)
        return 2
    if args.seconds <= 0 or args.repeats < 1:
        parser.error("--seconds and --repeats must be positive")
    try:
        if args.command == "spread":
            return cmd_spread(args)
        if args.trace is not None:
            if args.workload is None:
                parser.error("--trace needs --workload")
            return cmd_driver(args)
        return cmd_suite(args)
    except ChildFailed as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
