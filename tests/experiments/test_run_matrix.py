"""One contract for every way to run a set of cells.

``run_trials``, ``sweep`` and ``run_table3`` are all *enumerate specs
-> run_matrix -> read records*, so they share one behaviour: the same
result with or without a store and at any ``jobs``, zero cells on a
re-invoke, validation before any compute, and a run-time failure that
costs exactly the failed cell.  The only binding that trains a cell is
``scheduler.run_spec``; the spy below wraps it.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

import numpy as np
import pytest

from repro.experiments import run_trials, sweep
from repro.experiments import scheduler as scheduler_module
from repro.experiments.scale import ScalePreset
from repro.experiments.scheduler import fork_available, run_matrix
from repro.experiments.store import ResultStore
from repro.experiments.sweeps import SweepResult
from repro.experiments.table3 import run_table3
from repro.spec import RunSpec

TINY = ScalePreset(
    name="matrix-test", n_train=200, n_test=100, num_rounds=2, local_epochs=1,
    batch_size=32,
)
CELL = dict(dataset="adult", partition="iid")


@dataclasses.dataclass(frozen=True)
class Entry:
    """One multi-cell entry point at a tiny, fully-keyworded default call."""

    function: Callable
    defaults: dict
    #: distinct cells the default call runs
    cells: int
    #: every number the result carries, as a flat list of arrays
    arrays: Callable
    #: overrides that make one point fail ``validate()``
    invalid: dict
    #: overrides that repeat a point (None: the signature cannot say it)
    duplicate: dict | None
    #: maps the ``duplicate`` call's result to the plain call's result
    collapse: Callable = lambda result: result

    def run(self, **overrides):
        return self.function(**{**self.defaults, **overrides})


def _history_arrays(history) -> list:
    return [
        history.accuracies,
        history.losses,
        history.dropped_counts,
        history.cumulative_communication(),
        history.virtual_times,
        [history.mean_staleness()],
    ]


def _sweep_arrays(result) -> list:
    out = [np.asarray(list(result.histories))]
    for history in result.histories.values():
        out += _history_arrays(history)
    return out


def _drop_repeat(result) -> SweepResult:
    """The plain sweep's result, once the repeated label's History has
    been checked against the first point's."""
    histories = dict(result.histories)
    again, first = histories.pop("again"), next(iter(histories.values()))
    for a, b in zip(_history_arrays(again), _history_arrays(first), strict=True):
        assert np.array_equal(a, b)
    return SweepResult(histories)


def sweep_entry(points: dict, invalid: dict, **fixed) -> Entry:
    """A ``sweep`` row; ``invalid`` and a repeat of the first point are
    added to ``points`` for the failure and duplicate checks."""
    first = next(iter(points.values()))
    return Entry(
        sweep,
        dict(**CELL, points=points, preset=TINY, seed=3, **fixed),
        cells=len(points),
        arrays=_sweep_arrays,
        invalid=dict(points={**points, "invalid": invalid}),
        duplicate=dict(points={**points, "again": first}),
        collapse=_drop_repeat,
    )


ASYNC = {"aggregation": "async", "staleness_exponent": 0.5}

# Every sweep-shaped study runs through ``sweep``; its rows are named for
# the study they reproduce.
ENTRIES = {
    "run_trials": Entry(
        run_trials,
        dict(**CELL, algorithm="fedavg", num_trials=2, base_seed=3, preset=TINY),
        cells=2,
        arrays=lambda summary: [summary.accuracies],
        invalid=dict(lr=-1.0),
        duplicate=None,  # trial seeds are distinct by construction
    ),
    "sweep": sweep_entry(
        {lr: {"lr": lr} for lr in (0.1, 0.01)}, invalid={"lr": -1.0}
    ),
    # Fig. 8's shape: a point switches the algorithm (mu on FedAvg is
    # rejected by validate()).
    "algorithm_switch": sweep_entry(
        {"mu=0": {"algorithm": "fedprox", "mu": 0.0}, "fedavg": {}},
        invalid={"mu": 0.1},
    ),
    # Section 5.2's codec ladder: points set two knobs at once.
    "communication_sweep": sweep_entry(
        {"identity": {"codec": "identity"}, "qsgd(4b)": {"codec": "qsgd", "codec_bits": 4}},
        invalid={"codec": "qsgd", "codec_bits": 99},
    ),
    "dropout_sweep": sweep_entry(
        {"p=0": {"dropout_prob": 0.0}, "p=0.4": {"dropout_prob": 0.4}},
        invalid={"dropout_prob": 1.5},
    ),
    # Sync barrier vs buffered async at one cohort: buffer 1 < cohort 4
    # flushes mixed-staleness deltas.
    "async_tradeoff": sweep_entry(
        {
            "sync": {"sample_fraction": 0.4},
            1: {**ASYNC, "buffer_size": 1},
            2: {**ASYNC, "buffer_size": 2},
        },
        invalid={**ASYNC, "buffer_size": 0},
        sample_per_round=4,
    ),
    "run_table3": Entry(
        run_table3,
        dict(
            datasets=["adult"], partitions=["iid"],
            algorithms=("fedavg", "fedprox"), preset=TINY, num_trials=2,
            base_seed=3,
        ),
        cells=4,
        arrays=lambda board: [
            summary.accuracies
            for entries in board._entries.values()
            for summary in entries.values()
        ],
        invalid=dict(preset=dataclasses.replace(TINY, batch_size=0)),
        duplicate=dict(algorithms=("fedavg", "fedprox", "fedavg")),
    ),
}

def over(predicate=lambda entry: True):
    """Parametrize a test over the entry points the predicate selects."""
    chosen = {name: entry for name, entry in ENTRIES.items() if predicate(entry)}
    return pytest.mark.parametrize("entry", chosen.values(), ids=chosen.keys())


entries = over()


def assert_same(entry: Entry, left, right) -> None:
    left, right = entry.arrays(left), entry.arrays(right)
    assert len(left) == len(right)
    for a, b in zip(left, right):
        assert np.array_equal(a, b)


def store_bytes(store: ResultStore) -> dict:
    return {path.name: path.read_bytes() for path in store.root.glob("*.json")}


def spy_on_cells(monkeypatch, fail_on_call: int | None = None) -> list[str]:
    """Wrap the one binding that trains a cell; returns the run_ids it saw.

    ``fail_on_call=n`` makes the n-th trained cell (1-based) raise.
    """
    calls: list[str] = []
    real = scheduler_module.run_spec

    def run_spec(spec, resume=None):
        calls.append(spec.run_id())
        if len(calls) == fail_on_call:
            raise OSError("injected cell failure")
        return real(spec, resume=resume)

    monkeypatch.setattr(scheduler_module, "run_spec", run_spec)
    return calls


class TestContract:
    @entries
    def test_store_changes_nothing(self, entry, tmp_path):
        store = ResultStore(tmp_path)
        assert_same(entry, entry.run(), entry.run(store=store))
        assert len(store) == entry.cells

    @entries
    def test_reinvoke_runs_zero_cells(self, entry, tmp_path, monkeypatch):
        store = ResultStore(tmp_path)
        calls = spy_on_cells(monkeypatch)
        first = entry.run(store=store)
        assert len(calls) == entry.cells  # the spy is live
        saved = store_bytes(store)
        assert_same(entry, first, entry.run(store=store))
        assert len(calls) == entry.cells
        assert store_bytes(store) == saved

    @pytest.mark.concurrent
    @pytest.mark.skipif(not fork_available(), reason="requires fork")
    @entries
    def test_jobs_change_nothing(self, entry, tmp_path):
        inline, pooled = ResultStore(tmp_path / "1"), ResultStore(tmp_path / "2")
        assert_same(
            entry, entry.run(store=inline, jobs=1), entry.run(store=pooled, jobs=2)
        )
        assert store_bytes(inline) == store_bytes(pooled)
        assert len(inline) == entry.cells
        assert_same(entry, entry.run(jobs=2), entry.run(store=inline))

    @entries
    def test_invalid_trains_nothing(self, entry, tmp_path, monkeypatch):
        store = ResultStore(tmp_path)
        calls = spy_on_cells(monkeypatch)
        with pytest.raises(ValueError, match="invalid RunSpec"):
            entry.run(store=store, **entry.invalid)
        assert calls == []
        assert len(store) == 0

    @entries
    def test_failure_costs_one_cell(self, entry, tmp_path, monkeypatch):
        store = ResultStore(tmp_path)
        with monkeypatch.context() as patch:
            calls = spy_on_cells(patch, fail_on_call=2)
            with pytest.raises(RuntimeError, match="injected cell failure") as error:
                entry.run(store=store)
        failed = calls[1]
        assert failed in str(error.value)
        assert len(calls) == entry.cells  # the cells after it still ran
        assert len(store) == entry.cells - 1
        assert failed not in {record["run_id"] for record in store.records()}

        retried = spy_on_cells(monkeypatch)
        result = entry.run(store=store)
        assert retried == [failed]
        assert len(store) == entry.cells
        assert_same(entry, result, entry.run())

    @over(lambda entry: entry.duplicate)
    def test_duplicate_points_run_once(self, entry, tmp_path, monkeypatch):
        store = ResultStore(tmp_path)
        calls = spy_on_cells(monkeypatch)
        result = entry.run(store=store, **entry.duplicate)
        assert len(calls) == len(set(calls)) == entry.cells
        assert len(store) == entry.cells
        assert_same(entry, entry.collapse(result), entry.run(store=store))


class TestRunMatrix:
    """The function itself, below the entry points."""

    def specs(self, count: int = 2) -> list[RunSpec]:
        return RunSpec.build("adult", "iid", "fedavg", preset=TINY).trial_specs(count)

    def test_records_come_back_in_spec_order(self, tmp_path):
        first, second = self.specs()
        store = ResultStore(tmp_path)
        records = run_matrix([second, first, second], store=store)
        assert [record["run_id"] for record in records] == [
            second.run_id(), first.run_id(), second.run_id()
        ]
        assert records[0] == records[2] == store.get(second)
        assert len(store) == 2

    def test_scratch_store_records_equal_stored_ones(self, tmp_path):
        specs = self.specs()
        assert run_matrix(specs) == run_matrix(specs, store=ResultStore(tmp_path))

    def test_progress_streams_cell_events(self, tmp_path):
        specs = self.specs()
        store = ResultStore(tmp_path)
        events = []
        run_matrix(specs, store=store, progress=events.append)
        run_matrix(specs, store=store, progress=events.append)
        assert [event.kind for event in events] == ["done"] * 2 + ["cached"] * 2
        assert [event.run_id for event in events] == 2 * [s.run_id() for s in specs]

    def test_serial_invocation_claims_and_spills_builds(self, tmp_path, monkeypatch):
        """jobs=1 speaks the store protocol: claims taken, builds spilled."""
        from repro.data import build_cache

        store = ResultStore(tmp_path)
        seen = {}
        real = scheduler_module.run_spec

        def run_spec(spec, resume=None):
            claims = store.root / scheduler_module.CLAIMS_DIR
            seen["claim"] = (claims / f"{spec.run_id()}.claim").exists()
            seen["spill"] = build_cache.spill_dir()
            return real(spec, resume=resume)

        monkeypatch.setattr(scheduler_module, "run_spec", run_spec)
        before = build_cache.spill_dir()
        run_matrix(self.specs(1), store=store)
        assert seen == {
            "claim": True,
            "spill": store.root / scheduler_module.BUILD_CACHE_DIR,
        }
        assert build_cache.spill_dir() == before

    def test_rejects_non_positive_jobs(self, tmp_path):
        with pytest.raises(ValueError, match="jobs must be positive"):
            run_matrix(self.specs(1), store=ResultStore(tmp_path), jobs=0)
