"""One measured run, in the fresh interpreter the parent spawned for it.

Set-up is what a user's ``repro run`` pays before any work starts:
importing ``repro.cli``, building and validating the spec(s), computing
``run_id()``, opening the store.  The child stamps *ready* on the
system-wide monotonic clock, calls the real entry point (``run_spec`` or
``run_cells``) as a black box, stamps *done*, checks what came back and
writes one JSON result for the parent.  Dataset, partition and compile
costs are paid on every user run, so they stay inside the measured wall.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import pickle
import resource
import sys
import time
from pathlib import Path

import environment
import layers
import tracing
from workloads import WORKLOADS


def _history_facts(histories: list[dict]) -> dict:
    """Work and failure counts from serialized histories."""
    records = [record for history in histories for record in history["records"]]
    staleness = [s for record in records for s in record["staleness"]]
    return {
        "rounds": len(records),
        "client_updates": sum(len(r["participants"]) for r in records),
        "local_steps": sum(sum(r["client_steps"]) for r in records),
        "parties_attempted": sum(len(r["sampled"]) for r in records),
        "parties_failed": sum(len(r["dropped"]) for r in records),
        "fallback_rounds": sum(r["fallback"] is not None for r in records),
        "bytes_down": sum(r["bytes_down"] for r in records),
        "bytes_up": sum(r["bytes_up"] for r in records),
        "flushes": sum(r["buffer_flush"] > 0 for r in records),
        "mean_staleness": sum(staleness) / len(staleness) if staleness else 0.0,
    }


def _history_sha256(histories: list[dict]) -> str:
    canonical = json.dumps(histories, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _cpu_seconds() -> float:
    """CPU time of this process and every child it has waited for."""
    times = os.times()
    return times.user + times.system + times.children_user + times.children_system


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scratch", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    # -- set-up -------------------------------------------------------------
    import repro.cli  # noqa: F401  (the import a `repro run` pays)
    from repro.data import build_cache
    from repro.experiments import runner, scheduler
    from repro.experiments.store import ResultStore

    workload = WORKLOADS[args.workload]
    rounds = workload.rounds_at(args.scale)
    specs = workload.build(args.seed, rounds, args.scratch)
    for spec in specs:
        spec.validate()
        spec.run_id()
    sweep = workload.entry == "run_cells"
    store = ResultStore(args.scratch / "store") if sweep else None
    jobs = min(2, environment.nproc())

    tracer = None
    if args.trace:
        tracer = tracing.Tracer(args.scratch / "spans")
        tracer.install()
        tracer.reset()

    cache_before = build_cache.stats()
    cpu_before = _cpu_seconds()
    ready = time.monotonic()
    if args.setup_only:
        args.result.write_text(json.dumps({"ready": ready}))
        return 0

    # -- the measured window ------------------------------------------------
    # Looked up on the module at call time, so the traced run reaches the
    # wrapper and the untraced run the original.
    if sweep:
        report = scheduler.run_cells(specs, store, jobs=jobs)
    else:
        outcome = runner.run_spec(specs[0])
    done = time.monotonic()
    cpu_s = _cpu_seconds() - cpu_before
    main_summary = tracer.summary() if tracer else None

    # -- what came back -------------------------------------------------------
    failures: list[str] = []

    def check(ok: bool, message: str) -> None:
        if not ok:
            failures.append(message)

    facts = {
        "wall_s": done - ready, "cpu_s": cpu_s, "nproc": environment.nproc(), "jobs": jobs,
        "cells_ran": 0, "cells_cached": 0, "cells_failed": 0,
        "resume_s": 0.0, "store_bytes": 0,
    }
    if sweep:
        cache_delta = dict(report.build_cache)
        resume_start = time.monotonic()
        resumed = scheduler.run_cells(specs, store, jobs=jobs)
        facts["resume_s"] = time.monotonic() - resume_start
        records = [store.get(spec) for spec in specs]
        check(all(r is not None for r in records), "a cell has no stored record")
        records = [r for r in records if r is not None]
        histories = [r["history"] for r in records]
        accuracies = [float(r["final_accuracy"]) for r in records]
        facts.update(
            cells_ran=len(report.ran),
            cells_cached=len(report.cached),
            cells_failed=len(report.failed) + len(report.incomplete),
            store_bytes=sum(p.stat().st_size for p in store.root.glob("*.json")),
        )
        check(
            (len(report.ran), len(report.failed), len(report.incomplete))
            == (workload.cells, 0, 0),
            f"cold sweep: ran={len(report.ran)} failed={len(report.failed)} "
            f"incomplete={len(report.incomplete)}, expected {workload.cells}/0/0",
        )
        check(
            (len(resumed.ran), len(resumed.cached)) == (0, workload.cells),
            f"re-invoke: ran={len(resumed.ran)} cached={len(resumed.cached)}, "
            f"expected 0/{workload.cells}",
        )
        regenerated = resumed.build_cache.get("dataset_misses", 0) + resumed.build_cache.get(
            "partition_misses", 0
        )
        check(regenerated == 0, f"re-invoke regenerated {regenerated} datasets/partitions")
        check(all(math.isfinite(a) for a in accuracies), "a cell's accuracy is not finite")
        accuracy = min(accuracies, default=float("nan"))
    else:
        cache_delta = build_cache.stats_delta(cache_before, build_cache.stats())
        histories = [outcome.history.to_dict()]
        accuracy = float(outcome.final_accuracy)
        if args.scale >= 1.0:
            check(
                accuracy >= workload.accuracy_floor,
                f"final accuracy {accuracy:.4f} below the floor {workload.accuracy_floor}",
            )
    facts.update(_history_facts(histories))
    facts["build_cache"] = cache_delta

    check(
        facts["rounds"] == workload.cells * rounds,
        f"{facts['rounds']} rounds recorded, expected {workload.cells * rounds}",
    )
    expected_updates = workload.updates_per_round * rounds
    check(
        facts["client_updates"] == expected_updates,
        f"{facts['client_updates']} client updates, expected {expected_updates}",
    )
    expected_steps = workload.expected_steps(args.seed, rounds)
    check(
        expected_steps is None or facts["local_steps"] == expected_steps,
        f"{facts['local_steps']} local steps, expected {expected_steps}",
    )
    checkpoint = specs[0].exec.checkpoint_path
    if checkpoint is not None:
        try:
            with open(checkpoint, "rb") as handle:  # written by this run
                saved_rounds = pickle.load(handle)["rounds_completed"]
        except (OSError, pickle.UnpicklingError, KeyError) as error:
            saved_rounds = f"unreadable ({error})"
        every = specs[0].exec.checkpoint_every
        check(
            saved_rounds == rounds - rounds % every,
            f"last checkpoint holds {saved_rounds} rounds, expected {rounds - rounds % every}",
        )

    result = {
        "ready": ready,
        "done": done,
        "wall_s": facts["wall_s"],
        "cpu_s": cpu_s,
        "vm_hwm_kb": environment.vm_hwm_kb(),
        "children_maxrss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        "rounds_per_cell": rounds,
        "final_accuracy": accuracy,
        "history_sha256": _history_sha256(histories),
        "numeric": environment.numeric_record(),
        **{key: facts[key] for key in (
            "rounds", "client_updates", "local_steps", "parties_attempted",
            "parties_failed", "fallback_rounds", "cells_failed",
        )},
    }

    if tracer:
        worker_summary = tracer.worker_summary()
        merged = tracing.merge_summaries([main_summary, worker_summary])
        programs = [
            *tracer.collected["capture.program_init"].values(),
            *tracer.collected["capture.stacked_init"].values(),
        ]
        facts.update(
            arena_peak_bytes=max(
                (getattr(p.stats, "peak_bytes", 0) for p in programs), default=0
            ),
            materialized_end=sum(
                p.materialized_count
                for p in tracer.collected["population.checkout"].values()
            ),
        )
        per_layer = layers.per_layer_metrics(main_summary, worker_summary, facts)
        for problem in tracing.check_hits(workload.code, merged["hits"]):
            check(False, f"span target: {problem}")
        check(
            per_layer["trace.coverage"] >= 0.95,
            f"trace.coverage {per_layer['trace.coverage']:.3f} below 0.95",
        )
        result["per_layer"] = per_layer

    result["check_failures"] = failures
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
