"""Per-layer metric values from a traced run's span summaries and counts.

``*_s`` is summed span time, ``*_self_s`` span time minus the child spans
inside it (see tracing.py for how spans nest).  Counts come from the
wrappers, or from what the program returned: the histories, the
scheduler's ``MatrixReport``, ``build_cache.stats()``.  A layer a
workload never enters reports 0.
"""

from __future__ import annotations

import math

from metrics import PER_LAYER
from tracing import merge_summaries


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 on no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]


def per_layer_metrics(main: dict, workers: dict, facts: dict) -> dict[str, float]:
    """Every :data:`metrics.PER_LAYER` name mapped to its value.

    ``main`` and ``workers`` are span summaries of the measured process
    and of its forked scheduler workers; ``facts`` holds what the child
    counted outside the spans (see ``child.py``).
    """
    both = merge_summaries([main, workers])
    spans = both["spans"]

    def column(index: int):
        return lambda name: spans.get(name, (0, 0.0, 0.0, 0))[index]

    # the four columns of a span summary row (see Tracer.summary)
    calls, total, self_time, childless = (column(i) for i in range(4))

    wall = facts["wall_s"]
    cache = facts["build_cache"]
    memory_hits = cache.get("dataset_hits", 0) + cache.get("partition_hits", 0)
    disk_hits = cache.get("dataset_disk_hits", 0)
    misses = cache.get("dataset_misses", 0) + cache.get("partition_misses", 0)
    lookups = memory_hits + disk_hits + misses
    round_durations = both["durations"].get("server.run_round", [])
    run_cells_s = total("scheduler.run_cells")
    # The worker-side run_spec + store.save; with jobs=1 the same spans
    # sit inside run_cells in the measured process.
    busy = total("runner.run_spec") + total("store.save") if run_cells_s else 0.0
    engine_steps = calls("capture.engine_step")

    values = {
        "process.cpu_s": facts["cpu_s"],
        "process.cpu_share": facts["cpu_s"] / wall / facts["nproc"],
        "spec.run_id_calls": calls("spec.run_id"),
        "spec.run_id_s": total("spec.run_id"),
        "runner.run_spec_s": total("runner.run_spec"),
        "runner.run_spec_self_s": self_time("runner.run_spec"),
        "data.load_dataset_s": total("data.load_dataset"),
        "data.load_dataset_calls": calls("data.load_dataset"),
        "partition.partition_s": total("partition.partition"),
        "partition.calls": calls("partition.partition"),
        "client.make_clients_s": total("client.make_clients"),
        "models.build_model_s": total("models.build_model"),
        "build_cache.hits": memory_hits,
        "build_cache.misses": misses,
        "build_cache.disk_hits": disk_hits,
        "build_cache.hit_ratio": (memory_hits + disk_hits) / lookups if lookups else 0.0,
        "server.init_s": total("server.init"),
        "server.run_round_s": total("server.run_round"),
        "server.run_round_self_s": self_time("server.run_round"),
        "server.rounds": calls("server.run_round"),
        "server.round_s_p50": _percentile(round_durations, 0.50),
        "server.round_s_p95": _percentile(round_durations, 0.95),
        "server.save_checkpoint_s": total("server.save_checkpoint"),
        "server.checkpoints": calls("server.save_checkpoint"),
        "executor.execute_round_s": total("executor.execute_round"),
        "executor.execute_round_self_s": self_time("executor.execute_round"),
        "executor.parties_attempted": facts["parties_attempted"],
        "executor.parties_failed": facts["parties_failed"],
        "executor.fallback_rounds": facts["fallback_rounds"],
        "algorithms.local_update_s": total("algorithms.local_update"),
        "algorithms.local_update_self_s": self_time("algorithms.local_update"),
        "algorithms.commit_s": total("algorithms.commit"),
        "algorithms.aggregate_s": total("algorithms.aggregate"),
        "aggregation.weighted_average_s": total("aggregation.weighted_average"),
        "trainer.run_local_training_s": total("trainer.run_local_training"),
        "trainer.self_s": self_time("trainer.run_local_training"),
        "trainer.local_steps": facts["local_steps"],
        "grad.forward_s": total("grad.forward"),
        "grad.backward_s": total("grad.backward"),
        "grad.optim_step_s": total("grad.optim_step"),
        "grad.eager_steps": calls("grad.backward"),
        "capture.engine_step_s": total("capture.engine_step"),
        # Engine time that is neither replay nor the eager pass a capture
        # runs: tracing the tape, compiling, planning, key lookups.
        "capture.compile_s": (
            self_time("capture.engine_step") + self_time("capture.stacked_program")
        ),
        "capture.replay_s": total("capture.replay"),
        "capture.programs": calls("capture.program_init"),
        "capture.replayed_steps": calls("capture.replay"),
        # TrainingEngine.step returns None without opening any span when
        # the batch shape must run eagerly.
        "capture.eager_fallback_steps": childless("capture.engine_step"),
        "capture.replay_ratio": (
            calls("capture.replay") / engine_steps if engine_steps else 0.0
        ),
        "capture.arena_peak_bytes": facts["arena_peak_bytes"],
        "capture.stacked_step_s": total("capture.stacked_step"),
        "capture.stacked_programs": calls("capture.stacked_init"),
        "capture.stacked_steps": calls("capture.stacked_step"),
        "capture.inference_forward_s": total("capture.inference_forward"),
        "comm.broadcast_s": total("comm.broadcast"),
        "comm.encode_upload_s": total("comm.encode_upload"),
        "comm.encode_extras_s": total("comm.encode_extras"),
        "comm.codec_encode_s": total("comm.codec_encode"),
        "comm.codec_decode_s": total("comm.codec_decode"),
        "comm.bytes_down": facts["bytes_down"],
        "comm.bytes_up": facts["bytes_up"],
        "evaluation.evaluate_s": total("evaluation.evaluate"),
        "evaluation.calls": calls("evaluation.evaluate"),
        "async_engine.fit_s": total("async_engine.fit"),
        "async_engine.fit_self_s": self_time("async_engine.fit"),
        "async_engine.flushes": facts["flushes"],
        "async_engine.mean_staleness": facts["mean_staleness"],
        "population.checkout_s": total("population.checkout"),
        "population.release_s": total("population.release"),
        "population.checkouts": calls("population.checkout"),
        "population.materialized_end": facts["materialized_end"],
        "store.save_s": total("store.save"),
        "store.saves": calls("store.save"),
        "store.get_s": total("store.get"),
        "store.gets": calls("store.get"),
        "store.bytes_written": facts["store_bytes"],
        "scheduler.run_cells_s": run_cells_s,
        "scheduler.cells_ran": facts["cells_ran"],
        "scheduler.cells_cached": facts["cells_cached"],
        "scheduler.cells_failed": facts["cells_failed"],
        "scheduler.worker_busy_s": busy,
        "scheduler.worker_idle_share": (
            1.0 - busy / (facts["jobs"] * run_cells_s) if run_cells_s else 0.0
        ),
        "scheduler.resume_s": facts["resume_s"],
        # Spans of the measured process only: its root spans tile the
        # window the harness clock measured from outside.
        "trace.coverage": main["root_s"] / wall,
        "trace.wall_s": wall,
    }
    mismatch = {metric.name for metric in PER_LAYER} ^ set(values)
    if mismatch:
        raise RuntimeError(f"layers.py and metrics.PER_LAYER disagree on {sorted(mismatch)}")
    return {metric.name: float(values[metric.name]) for metric in PER_LAYER}
