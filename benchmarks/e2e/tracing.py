"""Spans recorded from outside the program: the target table and the tracer.

The program under ``src/`` has no timers of its own, so the traced run
wraps each layer's public functions from here.  A wrapper replaces the
attribute on its owner (a module or a class) and on every loaded
``repro.*`` module that imported the function by name, under whatever
alias.  This is measurement from outside; a later ``repro.obs`` issue
replaces it with spans recorded inside the program.

Every target lives in :data:`TARGETS`.  :meth:`Tracer.install` resolves
all of them before wrapping any, so a refactor that renames or deletes
one aborts the traced run and names the entry instead of silently
dropping a layer.  After the run :func:`check_hits` holds the table's
per-workload predictions against what was actually called.

Spans stay in memory (four parallel arrays) and are summarised after the
measured window.  Forked scheduler workers leave through ``os._exit``,
so in a worker every closed root span appends the summary of what it
covered to a per-pid file that the parent merges.

One span name is open at most once at a time: a nested call of the same
name (``Module.__call__`` inside ``Module.__call__``, a subclass method
calling ``super()``) runs unrecorded inside the outer span.  That makes
"outermost forward" and "root backward" fall out of the general rule and
keeps summed span time free of double counting.  The tracer assumes the
measured work runs on one thread per process, which holds today (the
scheduler's heartbeat thread calls no target).
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
import types
from array import array
from dataclasses import dataclass
from pathlib import Path


class TargetError(RuntimeError):
    """A span target no longer resolves to a function the wrappers can rebind."""


@dataclass(frozen=True)
class Target:
    #: span name; per-layer metrics are derived from span names (layers.py)
    span: str
    #: ``"package.module"`` or ``"package.module:Class"``
    owner: str
    attr: str
    #: workload codes (C cell_cnn, M rounds_mlp, S sweep_jobs, A async_pop)
    #: on which the target must be called at least once / never
    hit: str = ""
    zero: str = ""
    #: also wrap every subclass that overrides ``attr``
    subclasses: bool = False
    #: False: must resolve, but is read after the run rather than wrapped
    wrap: bool = True
    #: keep every ``self`` the wrapper sees (read for counters afterwards)
    collect: bool = False

    @property
    def label(self) -> str:
        return f"{self.owner}.{self.attr}"


_SERVER = "repro.federated.server:FederatedServer"
_ALGO = "repro.federated.algorithms.base:FedAlgorithm"
_CAPTURE = "repro.grad.capture"
_CHANNEL = "repro.comm.channel:CommChannel"
_CODEC = "repro.comm.codecs:Codec"
_ASYNC = "repro.federated.async_engine:AsyncFederation"
_POPULATION = "repro.federated.population:VirtualPopulation"
_STORE = "repro.experiments.store:ResultStore"

TARGETS = (
    Target("spec.run_id", "repro.spec:RunSpec", "run_id", hit="S", zero="CMA"),
    Target("runner.run_spec", "repro.experiments.runner", "run_spec", hit="CMSA"),
    Target("data.load_dataset", "repro.data.registry", "load_dataset", hit="CMSA"),
    Target("partition.partition", "repro.partition.base:Partitioner", "partition",
           hit="CMS", zero="A", subclasses=True),
    Target("client.make_clients", "repro.federated.client", "make_clients",
           hit="CMS", zero="A"),
    Target("models.build_model", "repro.models.registry", "build_model", hit="CMSA"),
    Target("build_cache.cached_dataset", "repro.data.build_cache", "cached_dataset",
           hit="CMSA"),
    Target("build_cache.cached_partition", "repro.data.build_cache", "cached_partition",
           hit="CMS", zero="A"),
    Target("build_cache.stats", "repro.data.build_cache", "stats", wrap=False),
    Target("server.init", _SERVER, "__init__", hit="CMS", zero="A"),
    Target("server.run_round", _SERVER, "run_round", hit="CMS", zero="A"),
    Target("server.save_checkpoint", _SERVER, "save_checkpoint", hit="M", zero="CSA"),
    Target("executor.execute_round", "repro.federated.executor:ClientExecutor",
           "execute_round", hit="CMSA", subclasses=True),
    Target("executor.process_upload", "repro.federated.executor", "process_upload",
           hit="CMSA"),
    Target("algorithms.local_update", _ALGO, "local_update", hit="CMSA", subclasses=True),
    Target("algorithms.commit", _ALGO, "commit", hit="CMSA", subclasses=True),
    Target("algorithms.aggregate", _ALGO, "aggregate", hit="CMSA", subclasses=True),
    Target("aggregation.weighted_average", "repro.federated.aggregation",
           "weighted_average_states", hit="CMSA"),
    Target("trainer.run_local_training", "repro.federated.trainer", "run_local_training",
           hit="CMSA"),
    Target("grad.forward", "repro.grad.nn.module:Module", "__call__", hit="CMSA"),
    Target("grad.backward", "repro.grad.tensor:Tensor", "backward", hit="CMSA"),
    Target("grad.optim_step", "repro.grad.optim:SGD", "step", hit="CMSA"),
    Target("grad.optim_step", "repro.grad.optim:Adam", "step", zero="CMSA"),
    Target("grad.optim_step", "repro.grad.optim:StackedSGD", "step", hit="A", zero="CMS"),
    Target("capture.engine_step", f"{_CAPTURE}:TrainingEngine", "step",
           hit="MA", zero="CS"),
    Target("capture.program_init", f"{_CAPTURE}:CapturedStep", "__init__",
           hit="MA", zero="CS", collect=True),
    Target("capture.replay", f"{_CAPTURE}:CapturedStep", "replay_step",
           hit="MA", zero="CS"),
    Target("capture.stats", f"{_CAPTURE}:CapturedStep", "stats", wrap=False),
    Target("capture.inference_forward", f"{_CAPTURE}:InferenceEngine", "forward",
           hit="MA", zero="CS"),
    Target("capture.stacked_program", f"{_CAPTURE}:StackedEngine", "program",
           hit="A", zero="CMS"),
    Target("capture.stacked_init", f"{_CAPTURE}:StackedStep", "__init__",
           hit="A", zero="CMS", collect=True),
    Target("capture.stacked_step", f"{_CAPTURE}:StackedStep", "step",
           hit="A", zero="CMS"),
    Target("comm.broadcast", _CHANNEL, "broadcast", hit="CMSA"),
    Target("comm.encode_upload", _CHANNEL, "encode_upload", hit="CMSA"),
    # The identity codec meters sizes and returns before any of these.
    Target("comm.encode_extras", _CHANNEL, "encode_extras", hit="M", zero="CSA"),
    Target("comm.codec_encode", _CODEC, "encode", hit="M", zero="CSA", subclasses=True),
    Target("comm.codec_decode", _CODEC, "decode", hit="M", zero="CSA", subclasses=True),
    Target("evaluation.evaluate", "repro.federated.evaluation", "evaluate", hit="CMSA"),
    Target("async_engine.init", _ASYNC, "__init__", hit="A", zero="CMS"),
    Target("async_engine.fit", _ASYNC, "fit", hit="A", zero="CMS"),
    Target("async_engine.evaluate", _ASYNC, "evaluate", hit="A", zero="CMS"),
    Target("population.checkout", _POPULATION, "checkout", hit="A", zero="CMS",
           collect=True),
    Target("population.release", _POPULATION, "release", hit="A", zero="CMS"),
    Target("population.materialized_count", _POPULATION, "materialized_count",
           wrap=False),
    Target("store.save", _STORE, "save", hit="S", zero="CMA"),
    Target("store.get", _STORE, "get", hit="S", zero="CMA"),
    Target("scheduler.run_cells", "repro.experiments.scheduler", "run_cells",
           hit="S", zero="CMA"),
)

#: span names whose individual durations are kept (for percentiles)
KEEP_DURATIONS = frozenset({"server.run_round"})


def _resolve(target: Target):
    """``(owner object, raw attribute)`` or raise naming the entry."""
    module_name, _, class_name = target.owner.partition(":")
    try:
        owner = importlib.import_module(module_name)
        if class_name:
            owner = getattr(owner, class_name)
        raw = vars(owner)[target.attr]
    except (ImportError, AttributeError, KeyError) as error:
        raise TargetError(
            f"span target {target.label} (span {target.span!r}) does not resolve: "
            f"{type(error).__name__}: {error}. Update TARGETS in "
            "benchmarks/e2e/tracing.py to follow the refactor."
        ) from None
    if target.wrap and not isinstance(raw, types.FunctionType):
        raise TargetError(
            f"span target {target.label} is a {type(raw).__name__}, not a plain "
            "function; the wrappers only know how to rebind plain functions."
        )
    return owner, raw


def _all_subclasses(cls) -> list:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_all_subclasses(sub))
    return found


def empty_summary() -> dict:
    return {"spans": {}, "durations": {}, "hits": {}, "root_s": 0.0}


def merge_summaries(parts) -> dict:
    """Add up summaries (worker flushes are additive by construction)."""
    merged = empty_summary()
    for part in parts:
        for name, row in part["spans"].items():
            into = merged["spans"].setdefault(name, [0, 0.0, 0.0, 0])
            for i, value in enumerate(row):
                into[i] += value
        for name, values in part["durations"].items():
            merged["durations"].setdefault(name, []).extend(values)
        for label, count in part["hits"].items():
            merged["hits"][label] = merged["hits"].get(label, 0) + count
        merged["root_s"] += part["root_s"]
    return merged


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self, spill_dir: Path):
        self.spill_dir = Path(spill_dir)
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # one entry per span, appended in lockstep by the wrappers
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.depth: list[int] = []  # per span name: 1 while one is open
        self.hits: list[int] = []  # per wrapped function
        self.hit_labels: list[str] = []
        self.collected: dict[str, dict[int, object]] = {}
        self.in_worker = False

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Resolve every target, then wrap them; call once per process."""
        resolved = [(target, _resolve(target)[0]) for target in TARGETS]
        self.spill_dir.mkdir(parents=True, exist_ok=True)
        for target, owner in resolved:
            if not target.wrap:
                continue
            owners = [owner]
            if target.subclasses:
                owners += [
                    sub for sub in _all_subclasses(owner) if target.attr in vars(sub)
                ]
            for holder in owners:
                original = vars(holder)[target.attr]
                wrapper = self._wrap(original, target)
                setattr(holder, target.attr, wrapper)
                if isinstance(holder, types.ModuleType):
                    _rebind_importers(original, wrapper)
        os.register_at_fork(after_in_child=self._after_fork)

    def _span_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.depth.append(0)
        return self._name_ids[name]

    def _wrap(self, fn, target: Target):
        nid = self._span_id(target.span)
        # Subclass overrides count towards their base entry's label.
        hit_index = len(self.hits)
        self.hits.append(0)
        self.hit_labels.append(target.label)
        seen = self.collected.setdefault(target.span, {}) if target.collect else None
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack, depth, hits = self.stack, self.depth, self.hits
        clock = time.monotonic
        tracer = self

        def wrapper(*args, **kwargs):
            hits[hit_index] += 1
            if seen is not None:
                seen[id(args[0])] = args[0]
            if depth[nid]:
                return fn(*args, **kwargs)
            depth[nid] = 1
            index = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(index)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()
                depth[nid] = 0
                if tracer.in_worker and not stack:
                    tracer.flush()

        return functools.update_wrapper(wrapper, fn)

    # -- lifecycle --------------------------------------------------------

    def reset(self) -> None:
        """Forget everything recorded so far (called at *ready*)."""
        for column in (self.name_id, self.parent, self.start, self.end):
            del column[:]
        del self.stack[:]
        for i in range(len(self.depth)):
            self.depth[i] = 0
        for i in range(len(self.hits)):
            self.hits[i] = 0
        for seen in self.collected.values():
            seen.clear()

    def _after_fork(self) -> None:
        # The child inherits the parent's spans and its open stack
        # (run_cells is mid-call); those frames never resume here.
        self.reset()
        self.in_worker = True

    def summary(self) -> dict:
        """Aggregate the spans recorded in this process."""
        count = len(self.start)
        durations = [self.end[i] - self.start[i] for i in range(count)]
        self_time = list(durations)
        has_child = bytearray(count)
        for i in range(count):
            parent = self.parent[i]
            if parent >= 0:
                self_time[parent] -= durations[i]
                has_child[parent] = 1
        out = empty_summary()
        for i in range(count):
            name = self.names[self.name_id[i]]
            row = out["spans"].setdefault(name, [0, 0.0, 0.0, 0])
            row[0] += 1  # calls
            row[1] += durations[i]  # total_s
            row[2] += self_time[i]  # self_s
            row[3] += not has_child[i]  # calls with no child span
            if name in KEEP_DURATIONS:
                out["durations"].setdefault(name, []).append(durations[i])
            if self.parent[i] < 0:
                out["root_s"] += durations[i]
        for label, hits in zip(self.hit_labels, self.hits):
            if hits:
                out["hits"][label] = out["hits"].get(label, 0) + hits
        return out

    def flush(self) -> None:
        """Worker side: append what was recorded since the last flush."""
        line = json.dumps(self.summary())
        with open(self.spill_dir / f"spans-{os.getpid()}.jsonl", "a") as handle:
            handle.write(line + "\n")
        self.reset()

    def worker_summary(self) -> dict:
        """Everything the forked workers flushed, merged."""
        parts = []
        for path in sorted(self.spill_dir.glob("spans-*.jsonl")):
            with open(path) as handle:
                parts.extend(json.loads(line) for line in handle)
        return merge_summaries(parts)


def _rebind_importers(original, wrapper) -> None:
    """Point every ``repro`` module that holds ``original`` at ``wrapper``."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def check_hits(code: str, hits: dict) -> list[str]:
    """Hold the table's predictions for workload ``code`` against ``hits``.

    ``hits`` maps a target's label to its call count, summed over
    processes and subclass overrides.  Returns one message per broken
    prediction.
    """
    problems = []
    for target in TARGETS:
        if not target.wrap:
            continue
        called = hits.get(target.label, 0)
        if code in target.hit and called == 0:
            problems.append(f"{target.label} expected to run on this workload, 0 calls")
        if code in target.zero and called != 0:
            problems.append(f"{target.label} predicted exactly zero, {called} calls")
    return problems
