"""Crash-safe parallel execution of experiment matrices over a ResultStore.

The Table 3 matrix and the sensitivity sweeps are hundreds of
independent, content-addressed cells — a schedulable workload, not a
for-loop.  :func:`run_cells` executes any list of :class:`RunSpec` cells
with a pool of work-stealing worker processes that coordinate purely
through the store directory, so there is no job server and no state
beyond the filesystem:

- **Completion** is a record in the :class:`ResultStore` (atomic
  ``save``): ``store.completed(spec)`` is the only "done" bit, so a
  re-invocation of a finished matrix runs zero new cells.
- **Reservation** is a claim file in ``<store>/.claims`` created with
  ``O_CREAT | O_EXCL`` — the filesystem arbitrates; exactly one worker
  wins a pending cell.  The claim records the owner's pid, host, and a
  heartbeat timestamp refreshed by a background thread while the cell
  trains.
- **Crash recovery** needs no fencing beyond that: a claim whose owner
  pid is dead (same host) or whose heartbeat has gone stale is
  *stolen* — atomically, by renaming the claim aside so only one
  stealer proceeds.  A worker SIGKILLed mid-cell therefore costs
  nothing but its partial compute: the record was never published
  (``save`` is atomic), the claim goes stale, and any surviving worker
  — or simply re-invoking the same command — re-claims and re-runs the
  cell.  Because cells are pure functions of their spec and records are
  keyed by ``run_id``, re-running is always safe: the re-computed
  record is byte-identical, so even the benign race where a presumed-
  dead owner wakes up and finishes concurrently ends with one intact,
  correct file.

``jobs=1`` runs the same claim/complete protocol inline in-process —
byte-identical records, no fork — so serial and parallel invocations
can share one store and one resume story.  :func:`run_matrix` is the
front door every multi-cell driver uses: validate, :func:`run_cells`,
raise on failure, records back in spec order.

Forked workers split the cores: each shrinks the OpenBLAS thread pool it
inherited to ``cpus // workers`` (at least 1) before claiming a cell, so
the pool does not oversubscribe the CPUs with BLAS threads.
"""

from __future__ import annotations

import ctypes
import json
import multiprocessing
import os
import queue as queue_module
import socket
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass, field

from repro.data import build_cache
from repro.spec import RunSpec
from repro.experiments.runner import run_spec
from repro.experiments.store import ResultStore

#: subdirectory of the store root holding claim and error-marker files.
CLAIMS_DIR = ".claims"

#: subdirectory of the store root where dataset/partition builds spill
#: as mmap-able ``.npy`` files (see :mod:`repro.data.build_cache`).
BUILD_CACHE_DIR = ".build_cache"

#: seconds between heartbeat refreshes while a worker trains a cell.
DEFAULT_HEARTBEAT_EVERY = 1.0

#: a claim whose heartbeat is older than this is stealable even if its
#: owner pid looks alive (covers suspended or foreign-host owners).
DEFAULT_STALE_AFTER = 30.0

#: how long an idle worker sleeps before re-scanning for stealable work.
DEFAULT_POLL_INTERVAL = 0.2


@dataclass(frozen=True)
class CellEvent:
    """One scheduler observation, streamed to the progress callback."""

    #: "cached" (already in the store), "done" (ran and saved),
    #: or "error" (the cell raised; see ``error``)
    kind: str
    spec: RunSpec
    run_id: str
    final_accuracy: float | None = None
    worker: int = 0
    error: str | None = None
    #: build-cache counter deltas for this cell (None for "cached" cells,
    #: which never touch the dataset builders)
    build_cache: dict | None = None


@dataclass
class MatrixReport:
    """What one :func:`run_cells` invocation did, by run_id."""

    cached: list[str] = field(default_factory=list)
    ran: list[str] = field(default_factory=list)
    #: run_id -> traceback text for cells whose run_spec raised
    failed: dict[str, str] = field(default_factory=dict)
    #: cells neither stored nor failed when the pool drained (e.g. held
    #: by a live foreign claim, or owned by a worker that died after the
    #: survivors exited) — re-invoking picks them up
    incomplete: list[str] = field(default_factory=list)
    #: dataset/partition build counters summed over this invocation's
    #: cells (``dataset_misses`` = actual regenerations; a re-invoked
    #: sweep over spilled builds shows zero)
    build_cache: dict = field(default_factory=dict)

    @property
    def completed(self) -> int:
        return len(self.cached) + len(self.ran)

    def raise_on_failure(self) -> "MatrixReport":
        """Raise if any cell failed or was left incomplete."""
        problems = [
            f"{run_id}: {error.strip().splitlines()[-1]}"
            for run_id, error in sorted(self.failed.items())
        ]
        problems.extend(f"{run_id}: incomplete" for run_id in self.incomplete)
        if problems:
            raise RuntimeError(
                "scheduler finished with unfinished cells (re-invoke to "
                "retry):\n  " + "\n  ".join(problems)
            )
        return self


# -- claim files ---------------------------------------------------------


def _claims_root(store: ResultStore):
    path = store.root / CLAIMS_DIR
    path.mkdir(parents=True, exist_ok=True)
    return path


def _claim_path(store: ResultStore, run_id: str):
    return _claims_root(store) / f"{run_id}.claim"


def _error_path(store: ResultStore, run_id: str):
    return _claims_root(store) / f"{run_id}.error"


def _claim_payload() -> str:
    return json.dumps(
        {
            "pid": os.getpid(),
            "host": socket.gethostname(),
            "heartbeat": time.time(),
        }
    )


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except (PermissionError, OSError):
        return True
    return True


def _claim_is_stale(path, stale_after: float) -> bool:
    """Whether a claim's owner can be presumed gone.

    Same-host owners are checked by pid — a SIGKILLed worker's claim is
    stealable immediately, no timeout to wait out.  Anything else
    (foreign host, unreadable claim) falls back to heartbeat age.
    """
    try:
        claim = json.loads(path.read_text())
        heartbeat = float(claim["heartbeat"])
        pid = int(claim["pid"])
        host = claim["host"]
    except (OSError, ValueError, KeyError, TypeError):
        # Unreadable/partial claim: judge by file age alone.
        try:
            heartbeat = path.stat().st_mtime
        except OSError:
            return False  # gone already — released or stolen
        return time.time() - heartbeat > stale_after
    if host == socket.gethostname() and not _pid_alive(pid):
        return True
    return time.time() - heartbeat > stale_after


def _try_claim(store: ResultStore, run_id: str, stale_after: float) -> bool:
    """Atomically reserve a cell; True iff this process now owns it."""
    path = _claim_path(store, run_id)
    try:
        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        if not _claim_is_stale(path, stale_after):
            return False
        # Steal: rename the stale claim aside.  os.rename of one source
        # succeeds for exactly one caller, so concurrent stealers
        # serialize here; the loser just sees the cell claimed again.
        stolen = path.with_name(f"{path.name}.stolen-{os.getpid()}")
        try:
            os.rename(path, stolen)
        except FileNotFoundError:
            return False
        os.unlink(stolen)
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
    with os.fdopen(fd, "w") as handle:
        handle.write(_claim_payload())
    return True


def _refresh_claim(store: ResultStore, run_id: str) -> None:
    """Re-publish the heartbeat (atomic, so readers never see half)."""
    path = _claim_path(store, run_id)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.hb")
    tmp.write_text(_claim_payload())
    os.replace(tmp, path)


def _release_claim(store: ResultStore, run_id: str) -> None:
    try:
        os.unlink(_claim_path(store, run_id))
    except FileNotFoundError:
        pass  # stolen while we (slowly) finished — benign, see module doc


def clear_error_markers(store: ResultStore) -> None:
    """Drop per-invocation failure markers so a re-invoke retries them."""
    for path in _claims_root(store).glob("*.error"):
        try:
            path.unlink()
        except FileNotFoundError:
            pass


# -- the worker loop -----------------------------------------------------


def _dedupe(specs) -> list[RunSpec]:
    """Drop duplicate cells (same run_id) while preserving order."""
    seen: set[str] = set()
    out = []
    for spec in specs:
        run_id = spec.run_id()
        if run_id not in seen:
            seen.add(run_id)
            out.append(spec)
    return out


def _run_one(store: ResultStore, spec: RunSpec, heartbeat_every: float):
    """Train one claimed cell with a live heartbeat, then publish it.

    Returns ``(outcome, build_delta)`` where ``build_delta`` is this
    cell's build-cache counter movement (hits and regenerations).
    """
    run_id = spec.run_id()
    stop = threading.Event()

    def beat():
        while not stop.wait(heartbeat_every):
            _refresh_claim(store, run_id)

    thread = threading.Thread(target=beat, daemon=True)
    thread.start()
    before = build_cache.stats()
    try:
        outcome = run_spec(spec)
        store.save(outcome)
    finally:
        stop.set()
        thread.join()
    return outcome, build_cache.stats_delta(before, build_cache.stats())


def _worker_loop(
    specs: list[RunSpec],
    store_root,
    emit,
    stale_after: float,
    heartbeat_every: float,
    poll_interval: float,
) -> None:
    """Claim-and-run until every cell is stored, failed, or foreign-held.

    Each worker scans the whole matrix; claim files arbitrate who runs
    what.  A worker with nothing claimable does not exit while pending
    cells remain — it polls, so it can steal from a pool-mate that dies
    mid-matrix and the invocation still completes.  It gives up only
    when every remaining cell is held by a live claim it cannot steal
    (some other invocation's workers; they will finish or go stale for
    *their* survivors).
    """
    store = ResultStore(store_root)
    previous_spill = build_cache.spill_dir()
    build_cache.set_spill_dir(store.root / BUILD_CACHE_DIR)
    try:
        _claim_and_run(
            store, specs, emit, stale_after, heartbeat_every, poll_interval
        )
    finally:
        # Inline (jobs=1) callers share this process: don't leave their
        # global spill target pointed at our store.
        build_cache.set_spill_dir(previous_spill)


def _claim_and_run(
    store, specs, emit, stale_after, heartbeat_every, poll_interval
) -> None:
    pending = {spec.run_id(): spec for spec in specs}
    while pending:
        progressed = False
        for run_id, spec in list(pending.items()):
            if _error_path(store, run_id).exists():
                del pending[run_id]
                continue
            if store.completed(spec):
                del pending[run_id]
                progressed = True
                continue
            if not _try_claim(store, run_id, stale_after):
                continue
            try:
                if store.completed(spec):  # raced a finishing owner
                    del pending[run_id]
                    progressed = True
                    continue
                try:
                    outcome, build_delta = _run_one(store, spec, heartbeat_every)
                except Exception:
                    text = traceback.format_exc()
                    error_path = _error_path(store, run_id)
                    tmp = error_path.with_name(
                        f"{error_path.name}.{os.getpid()}.tmp"
                    )
                    tmp.write_text(text)
                    os.replace(tmp, error_path)
                    emit(
                        CellEvent(
                            kind="error",
                            spec=spec,
                            run_id=run_id,
                            worker=os.getpid(),
                            error=text,
                        )
                    )
                else:
                    emit(
                        CellEvent(
                            kind="done",
                            spec=spec,
                            run_id=run_id,
                            final_accuracy=outcome.final_accuracy,
                            worker=os.getpid(),
                            build_cache=build_delta,
                        )
                    )
            finally:
                _release_claim(store, run_id)
            del pending[run_id]
            progressed = True
        if pending and not progressed:
            # Everything left is claimed by a live owner (a pool-mate or
            # another invocation).  Wait: the owner will finish (we see
            # the record), fail (we see the marker), or die (its claim
            # goes stale and we steal).  Liveness rests on the owner,
            # exactly as the crash model intends.
            time.sleep(poll_interval)


# -- the pool ------------------------------------------------------------


def fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


def run_cells(
    specs,
    store: ResultStore,
    jobs: int = 1,
    progress=None,
    stale_after: float = DEFAULT_STALE_AFTER,
    heartbeat_every: float = DEFAULT_HEARTBEAT_EVERY,
    poll_interval: float = DEFAULT_POLL_INTERVAL,
) -> MatrixReport:
    """Execute a list of cells through the claim protocol; see module doc.

    Parameters
    ----------
    specs:
        The matrix — any iterable of :class:`RunSpec`; duplicates (by
        run_id) collapse to one cell.
    store:
        The :class:`ResultStore` results land in and claims live under.
        Required: it *is* the scheduler's shared state.
    jobs:
        Worker processes.  ``1`` runs inline (no fork) with the process's
        BLAS pool as it is; higher counts fork ``min(jobs, pending
        cells)`` workers that steal cells from a shared pending set,
        each first shrinking its inherited OpenBLAS pool to
        ``max(1, min(pool, cpus // workers))`` threads.  On fork-less
        hosts the pool degrades to inline execution.
    progress:
        Optional callback receiving a :class:`CellEvent` as each cell
        resolves — "cached" events first (pre-scan, deterministic
        order), then "done"/"error" events in completion order.
    stale_after / heartbeat_every / poll_interval:
        Crash-detection tuning; the defaults suit real matrices, tests
        shrink them.

    Returns a :class:`MatrixReport`; call ``raise_on_failure()`` for the
    strict "everything must have landed" contract.
    """
    specs = _dedupe(specs)
    if jobs <= 0:
        raise ValueError(f"jobs must be positive, got {jobs}")
    report = MatrixReport()
    clear_error_markers(store)

    def note(event: CellEvent) -> None:
        if event.kind == "cached":
            report.cached.append(event.run_id)
        elif event.kind == "done":
            report.ran.append(event.run_id)
        elif event.kind == "error":
            report.failed[event.run_id] = event.error or ""
        for name, count in (event.build_cache or {}).items():
            report.build_cache[name] = report.build_cache.get(name, 0) + count
        if progress is not None:
            progress(event)

    # Pre-scan: resolve already-stored cells up front, in matrix order,
    # so progress output is deterministic for the resume-heavy case.
    todo = []
    for spec in specs:
        run_id = spec.run_id()
        record = store.get(spec)
        if record is not None:
            note(
                CellEvent(
                    kind="cached",
                    spec=spec,
                    run_id=run_id,
                    final_accuracy=float(record["final_accuracy"]),
                )
            )
        else:
            todo.append(spec)

    if todo:
        if jobs == 1 or not fork_available():
            _worker_loop(
                todo, store.root, note, stale_after, heartbeat_every,
                poll_interval,
            )
        else:
            _run_pool(
                todo, store, min(jobs, len(todo)), note, stale_after,
                heartbeat_every, poll_interval,
            )

    done = set(report.cached) | set(report.ran) | set(report.failed)
    for spec in specs:
        run_id = spec.run_id()
        if run_id in done:
            continue
        # Completed by a worker whose event got lost with it, or by a
        # concurrent invocation: trust the store over the event stream.
        record = store.get(spec)
        if record is not None:
            note(
                CellEvent(
                    kind="cached",
                    spec=spec,
                    run_id=run_id,
                    final_accuracy=float(record["final_accuracy"]),
                )
            )
        else:
            report.incomplete.append(run_id)
    return report


def run_matrix(
    specs, store: ResultStore | None = None, jobs: int = 1, progress=None
) -> list[dict]:
    """Run a set of cells; return their stored records in spec order.

    The one way to run more than one cell.  Every spec is validated
    before any compute; without a ``store`` one scratch store backs the
    call; ``jobs`` is a worker count and nothing else.  A cell that fails
    or stays unfinished raises ``RuntimeError`` naming its run_id
    (:meth:`MatrixReport.raise_on_failure`) once the other cells have
    landed, so re-invoking on the same store retries only that cell.
    """
    if store is None:
        with tempfile.TemporaryDirectory(prefix="repro-matrix-") as scratch:
            return run_matrix(specs, ResultStore(scratch), jobs, progress)
    specs = [spec.validate() for spec in specs]
    run_cells(specs, store=store, jobs=jobs, progress=progress).raise_on_failure()
    return [store.get(spec) for spec in specs]


#: OpenBLAS thread-pool entry points as ``(getter, setter)``, one pair per
#: symbol convention: plain builds, 64-bit-integer builds, and the
#: ``scipy_openblas`` build bundled in numpy wheels.
_OPENBLAS_SYMBOLS = (
    ("openblas_get_num_threads", "openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
)


def _mapped_openblas() -> list[str]:
    """Paths of the OpenBLAS shared objects mapped into this process."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split(maxsplit=5)[-1].strip() for line in maps}
    except OSError:
        return []
    return sorted(p for p in paths if "openblas" in p.lower() and ".so" in p)


def _openblas_threads():
    """``(get, set)`` for the thread pool of the loaded OpenBLAS, or None.

    A call through ctypes is the only way to resize a running pool:
    OpenBLAS reads ``OPENBLAS_NUM_THREADS`` once, when it loads, so a
    forked worker cannot change its inherited pool through the environment.
    """
    for path in _mapped_openblas():
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_SYMBOLS:
            get = getattr(library, get_name, None)
            set_ = getattr(library, set_name, None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


def _share_blas_threads(workers: int) -> None:
    """Shrink this process's OpenBLAS pool to its share of the CPUs.

    Only ever lowers the pool, so an explicit ``OPENBLAS_NUM_THREADS``
    stays the ceiling; without a known OpenBLAS this does nothing.  Bits
    do not move: OpenBLAS GEMM splits output blocks, not sums, across
    threads (``tests/grad/test_kernels.py`` checks the paper's shapes).
    """
    blas = _openblas_threads()
    if blas is None:
        return
    get, set_ = blas
    set_(max(1, min(get(), len(os.sched_getaffinity(0)) // workers)))


def _run_pool(
    todo, store, jobs, note, stale_after, heartbeat_every, poll_interval
) -> None:
    """Fork the worker pool and stream its events back to ``note``."""
    ctx = multiprocessing.get_context("fork")
    events: multiprocessing.Queue = ctx.Queue()

    def worker_main():
        _share_blas_threads(jobs)
        try:
            _worker_loop(
                todo, store.root, events.put, stale_after, heartbeat_every,
                poll_interval,
            )
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            pass

    workers = [ctx.Process(target=worker_main, daemon=True) for _ in range(jobs)]
    for worker in workers:
        worker.start()
    try:
        # A list, not a generator: ``is_alive`` is also what reaps a dead
        # worker, and a killed worker left a zombie still answers
        # ``_pid_alive``, so its claim would not be stolen until the
        # heartbeat timeout.  Poll every worker on every tick.
        while any([worker.is_alive() for worker in workers]):
            try:
                note(events.get(timeout=0.1))
            except queue_module.Empty:
                continue
        while True:  # drain events that landed after the last liveness check
            try:
                note(events.get_nowait())
            except queue_module.Empty:
                break
    finally:
        for worker in workers:
            worker.join()
        events.close()


__all__ = [
    "CellEvent",
    "MatrixReport",
    "run_cells",
    "run_matrix",
    "clear_error_markers",
    "fork_available",
]
