"""Crash-safety tests for the parallel sweep scheduler and the store.

Everything here forks, kills, or races real processes, so the whole
module carries the ``concurrent`` marker (``make test-concurrent``).
The matrices are tiny — the point is the claim protocol, not the
training.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import threading
import time

import pytest

from repro.spec import RunSpec
from repro.experiments.runner import run_spec
from repro.experiments.scale import ScalePreset
import repro.experiments.scheduler as scheduler_module
from repro.experiments.scheduler import (
    CLAIMS_DIR,
    _claim_path,
    _openblas_threads,
    _share_blas_threads,
    _try_claim,
    fork_available,
    run_cells,
)
from repro.experiments.store import ResultStore

pytestmark = pytest.mark.concurrent

TINY = ScalePreset(
    name="sched-test", n_train=200, n_test=100, num_rounds=2, local_epochs=1,
    batch_size=32,
)

#: slow enough that a kill lands mid-cell, fast enough for the suite.
SLOW = ScalePreset(
    name="sched-slow", n_train=600, n_test=150, num_rounds=60, local_epochs=2,
    batch_size=32,
)

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="requires fork-based multiprocessing"
)


def tiny_specs(count: int, preset: ScalePreset = TINY) -> list[RunSpec]:
    base = RunSpec.build("adult", "iid", "fedavg", preset=preset)
    return base.trial_specs(count)


class TestRunCells:
    def test_inline_runs_and_reports(self, tmp_path):
        store = ResultStore(tmp_path)
        specs = tiny_specs(2)
        events = []
        report = run_cells(specs, store=store, jobs=1, progress=events.append)
        report.raise_on_failure()
        assert sorted(report.ran) == sorted(s.run_id() for s in specs)
        assert report.cached == [] and report.incomplete == []
        assert [e.kind for e in events] == ["done", "done"]
        assert all(store.completed(s) for s in specs)

    def test_reinvoke_runs_zero_new_cells(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path)
        specs = tiny_specs(2)
        run_cells(specs, store=store, jobs=1)

        def boom(spec, resume=None):
            raise AssertionError("completed cell re-ran")

        monkeypatch.setattr(scheduler_module, "run_spec", boom)
        report = run_cells(specs, store=store, jobs=1)
        assert sorted(report.cached) == sorted(s.run_id() for s in specs)
        assert report.ran == []

    def test_duplicate_specs_collapse(self, tmp_path):
        store = ResultStore(tmp_path)
        (spec,) = tiny_specs(1)
        report = run_cells([spec, spec], store=store, jobs=1)
        assert report.ran == [spec.run_id()]

    def test_failed_cell_reported_and_retried_next_invocation(self, tmp_path):
        store = ResultStore(tmp_path)
        good, bad = tiny_specs(2)
        bad = bad.with_overrides(model="resnet9")  # image model on tabular
        report = run_cells([bad, good], store=store, jobs=1)
        assert report.failed and bad.run_id() in report.failed
        assert report.ran == [good.run_id()]
        with pytest.raises(RuntimeError, match="re-invoke"):
            report.raise_on_failure()
        # The failure marker is per-invocation: a re-invoke tries again.
        report = run_cells([bad, good], store=store, jobs=1)
        assert bad.run_id() in report.failed
        assert report.cached == [good.run_id()]

    @needs_fork
    def test_parallel_store_is_byte_identical_to_serial(self, tmp_path):
        serial, parallel = ResultStore(tmp_path / "s"), ResultStore(tmp_path / "p")
        specs = tiny_specs(3)
        run_cells(specs, store=serial, jobs=1).raise_on_failure()
        run_cells(specs, store=parallel, jobs=3).raise_on_failure()
        serial_files = {
            p.name: p.read_bytes() for p in serial.root.glob("*.json")
        }
        parallel_files = {
            p.name: p.read_bytes() for p in parallel.root.glob("*.json")
        }
        assert serial_files == parallel_files
        assert len(serial_files) == 3


class TestBlasThreads:
    @needs_fork
    @pytest.mark.skipif(
        _openblas_threads() is None, reason="needs a resizable OpenBLAS pool"
    )
    def test_forked_workers_split_the_cores(self, tmp_path, monkeypatch):
        """Each of 2 workers runs its cells on ``cpus // 2`` BLAS threads,
        not on the parent's pool it inherited."""
        get, _ = _openblas_threads()
        share = max(1, min(get(), len(os.sched_getaffinity(0)) // 2))
        run_one = scheduler_module._run_one

        def record_pool(store, spec, heartbeat_every):
            get, _ = _openblas_threads()
            (tmp_path / f"pool-{os.getpid()}").write_text(str(get()))
            return run_one(store, spec, heartbeat_every)

        monkeypatch.setattr(scheduler_module, "_run_one", record_pool)
        report = run_cells(
            tiny_specs(2), store=ResultStore(tmp_path / "store"), jobs=2
        )
        assert len(report.ran) == 2
        pools = [int(p.read_text()) for p in tmp_path.glob("pool-*")]
        assert pools and all(pool == share for pool in pools), (pools, share)

    def test_no_openblas_leaves_the_pool_alone(self, monkeypatch):
        monkeypatch.setattr(scheduler_module, "_mapped_openblas", lambda: [])
        assert _openblas_threads() is None
        _share_blas_threads(2)


class TestClaims:
    def test_claim_is_exclusive(self, tmp_path):
        store = ResultStore(tmp_path)
        assert _try_claim(store, "cell", stale_after=60.0)
        assert not _try_claim(store, "cell", stale_after=60.0)

    def test_dead_pid_claim_is_stolen_immediately(self, tmp_path):
        store = ResultStore(tmp_path)
        (spec,) = tiny_specs(1)
        run_id = spec.run_id()
        # Forge a claim held by a process that no longer exists, with a
        # fresh heartbeat — pid liveness must beat the timestamp.
        import multiprocessing

        probe = multiprocessing.get_context("fork").Process(target=lambda: None)
        probe.start()
        probe.join()
        dead_pid = probe.pid
        claims = tmp_path / CLAIMS_DIR
        claims.mkdir(exist_ok=True)
        (claims / f"{run_id}.claim").write_text(
            json.dumps(
                {
                    "pid": dead_pid,
                    "host": socket.gethostname(),
                    "heartbeat": time.time(),
                }
            )
        )
        report = run_cells(
            [spec], store=store, jobs=1, stale_after=3600.0
        ).raise_on_failure()
        assert report.ran == [run_id]
        assert not (claims / f"{run_id}.claim").exists()

    def test_live_foreign_claim_blocks_until_released(self, tmp_path):
        store = ResultStore(tmp_path)
        (spec,) = tiny_specs(1)
        run_id = spec.run_id()
        assert _try_claim(store, run_id, stale_after=60.0)  # "foreign": us

        def release_later():
            time.sleep(0.5)
            os.unlink(_claim_path(store, run_id))

        thread = threading.Thread(target=release_later)
        thread.start()
        started = time.time()
        report = run_cells(
            [spec], store=store, jobs=1, stale_after=3600.0,
            poll_interval=0.05,
        )
        thread.join()
        assert report.ran == [run_id]
        assert time.time() - started >= 0.5  # actually waited


@needs_fork
class TestCrashRecovery:
    def test_racing_saves_end_with_one_valid_record(self, tmp_path):
        """Two processes hammering save on the same run_id: one intact file."""
        import multiprocessing

        (spec,) = tiny_specs(1)
        outcome = run_spec(spec)
        store = ResultStore(tmp_path)
        ctx = multiprocessing.get_context("fork")
        barrier = ctx.Barrier(2)

        def hammer():
            barrier.wait()
            for _ in range(50):
                store.save(outcome)

        workers = [ctx.Process(target=hammer) for _ in range(2)]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        assert all(w.exitcode == 0 for w in workers)
        records = store.records()  # raises nothing, parses everything
        assert len(records) == 1
        assert records[0]["run_id"] == spec.run_id()

    def test_sigkill_mid_save_leaves_loadable_store(self, tmp_path):
        """A writer killed at a random moment cannot corrupt the store."""
        import multiprocessing

        (spec,) = tiny_specs(1)
        outcome = run_spec(spec)
        store = ResultStore(tmp_path)
        ctx = multiprocessing.get_context("fork")

        def save_forever():
            while True:
                store.save(outcome)

        victim = ctx.Process(target=save_forever)
        victim.start()
        time.sleep(0.3)  # let it cycle through many writes
        os.kill(victim.pid, signal.SIGKILL)
        victim.join()
        records = store.records()
        assert len(records) == 1
        assert records[0]["final_accuracy"] == outcome.final_accuracy
        # Any orphaned temp file is invisible to every read path.
        assert all(p.suffix == ".json" for p in store.root.glob("*.json"))

    def test_killed_worker_matrix_still_completes(self, tmp_path):
        """kill -9 a claimed worker: a survivor steals the cell at once
        (same-host pid probe, not the heartbeat timeout) and the same
        invocation completes the matrix with zero duplicate or corrupt
        records."""
        store = ResultStore(tmp_path)
        specs = tiny_specs(3, preset=SLOW)
        claims = tmp_path / CLAIMS_DIR
        killed = []

        def assassin():
            deadline = time.time() + 30.0
            while time.time() < deadline and not killed:
                for claim in claims.glob("*.claim"):
                    try:
                        pid = json.loads(claim.read_text())["pid"]
                        os.kill(int(pid), signal.SIGKILL)
                        killed.append(int(pid))
                        return
                    except (OSError, ValueError, KeyError):
                        continue
                time.sleep(0.01)

        thread = threading.Thread(target=assassin)
        thread.start()
        started = time.time()
        # The heartbeat fallback is set far beyond the bound below, so only
        # an immediate steal of the dead worker's claim can finish in time.
        report = run_cells(
            specs, store=store, jobs=2, poll_interval=0.05, stale_after=60.0,
        )
        elapsed = time.time() - started
        thread.join()
        assert killed, "assassin never found a claimed worker"
        report.raise_on_failure()
        assert elapsed < 25.0, f"stolen only after {elapsed:.0f}s"
        records = store.records()
        assert len(records) == 3
        assert sorted(r["run_id"] for r in records) == sorted(
            s.run_id() for s in specs
        )
        # Byte-identical to an undisturbed serial run of the same cells.
        clean = ResultStore(tmp_path / "clean")
        run_cells(specs, store=clean, jobs=1).raise_on_failure()
        assert {
            p.name: p.read_bytes() for p in store.root.glob("*.json")
        } == {p.name: p.read_bytes() for p in clean.root.glob("*.json")}
