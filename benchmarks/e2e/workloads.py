"""The four workloads: what runs, why, and what a correct run looks like.

Each workload is closed-loop and fixed-work: one caller, one spec (or
one matrix of specs), run to completion.  ``--seed`` becomes
``RunSpec.seed``; the program sees only the resulting spec.  The work
size is a number of rounds scaled by ``--seconds / NOMINAL_SECONDS``, so
at the committed ``run_seconds`` every run does the same work and the
self-test can run the same code path at a few percent of it.

``repro`` is imported inside the builders: the parent process of a
benchmark run stays a bare interpreter, and only the fresh child pays
for (and is measured paying for) the import.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

#: the ``--seconds`` value at which the work sizes are the ones below;
#: equals ``run_seconds`` in BENCHMARK.json
NOMINAL_SECONDS = 30


def _cell_cnn(seed: int, rounds: int, scratch: Path) -> list:
    from repro.spec import RunSpec

    return [RunSpec.build("mnist", "dir(0.5)", "fedavg", num_rounds=rounds, seed=seed)]


def _rounds_mlp(seed: int, rounds: int, scratch: Path) -> list:
    from repro.spec import RunSpec

    return [
        RunSpec.build(
            "adult",
            # Not the issue's dir(0.5): with 100 Dirichlet parties the first
            # batch of round 0 is ragged on ~3 seeds in 10, the engine then
            # captures the ragged shape, capture.replay_ratio drops from
            # 0.77 to 0.02 and wall_s rises by a quarter.  Equal parties
            # (120 samples: 3 full batches + 1 ragged) give every seed the
            # same work and the same 0.75 replay ratio.  See README.md.
            "iid",
            "scaffold",
            num_parties=100,
            sample_fraction=0.1,
            dataset_kwargs={"n_train": 12000, "n_test": 2000},
            num_rounds=rounds,
            local_epochs=2,
            codec="qsgd",
            codec_bits=8,
            compile=True,
            checkpoint_every=10,
            checkpoint_path=str(scratch / "rounds_mlp.ckpt"),
            seed=seed,
        )
    ]


def _sweep_jobs(seed: int, rounds: int, scratch: Path) -> list:
    from repro.experiments.table3 import table3_specs

    cells = table3_specs(datasets=("adult", "covtype", "fcube"), base_seed=seed)
    specs = [spec for trials in cells.values() for spec in trials]
    if rounds != specs[0].train.num_rounds:
        specs = [spec.with_overrides(num_rounds=rounds) for spec in specs]
    return specs


def _async_pop(seed: int, rounds: int, scratch: Path) -> list:
    from repro.spec import RunSpec

    return [
        RunSpec.build(
            "adult",
            "iid",  # ignored: parties come from the virtual population
            "fedavg",
            population=1_000_000,
            sample_per_round=100,
            aggregation="async",
            buffer_size=25,
            staleness_exponent=0.5,
            population_skew_beta=0.5,
            straggler_prob=0.2,
            straggler_factor=4.0,
            num_rounds=rounds,
            compile=True,
            executor="stacked",
            seed=seed,
        )
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    #: single-letter code used by the span-target table in tracing.py
    code: str
    why: str
    #: "run_spec" (one cell) or "run_cells" (a matrix through the scheduler)
    entry: str
    build: Callable[[int, int, Path], list]
    #: rounds (server steps) per cell at scale 1.0, and the floor the
    #: self-test's reduced scale may not go below (rounds_mlp needs one
    #: checkpoint, async_pop one mixed-staleness flush)
    rounds: int
    min_rounds: int
    cells: int
    #: client updates aggregated per round, summed over cells
    updates_per_round: int
    #: local SGD steps of the whole run.  Party sizes under dir(0.5)
    #: depend on the seed, so cell_cnn and sweep_jobs know the constant
    #: at seed 0 only; rounds_mlp's iid parties and async_pop's virtual
    #: parties have fixed sizes, so theirs holds at every seed.
    #: None = not predicted.
    expected_steps: Callable[[int, int], int | None]
    #: final test accuracy the full-size run must reach (sweep_jobs:
    #: every cell finite); not applied below scale 1.0
    accuracy_floor: float | None

    def rounds_at(self, scale: float) -> int:
        return max(self.min_rounds, round(self.rounds * scale))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="cell_cnn",
            code="C",
            why="Default `repro run` Table-3 image cell: eager conv forward/backward/SGD "
            "is nearly all of it, so round-loop, comm and store changes predict no movement.",
            entry="run_spec",
            build=_cell_cnn,
            rounds=20,
            min_rounds=1,
            cells=1,
            updates_per_round=10,
            expected_steps=lambda seed, rounds: 215 * rounds if seed == 0 else None,
            accuracy_floor=0.95,
        ),
        Workload(
            name="rounds_mlp",
            code="M",
            why="Fig. 12-style partial participation with 0.2 ms compiled steps: per-round "
            "server, QSGD comm, aggregation, evaluation and checkpoint work is over half the wall.",
            entry="run_spec",
            build=_rounds_mlp,
            rounds=660,
            min_rounds=10,
            cells=1,
            updates_per_round=10,
            expected_steps=lambda seed, rounds: 80 * rounds,
            accuracy_floor=0.80,
        ),
        Workload(
            name="sweep_jobs",
            code="S",
            why="The paper's matrix protocol, 40 cells at --jobs 2 on a cold store: scheduler, "
            "ResultStore, build cache, per-cell set-up and BLAS oversubscription show only here.",
            entry="run_cells",
            build=_sweep_jobs,
            rounds=12,
            min_rounds=1,
            cells=40,
            updates_per_round=376,  # 36 cells x 10 parties + 4 fcube-partition cells x 4
            expected_steps=lambda seed, rounds: 11740 * rounds if seed == 0 else None,
            accuracy_floor=None,
        ),
        Workload(
            name="async_pop",
            code="A",
            why="Million-client path: stacked (K,...) programs and AsyncFederation + "
            "VirtualPopulation, i.e. the other compiler and the other round loop than rounds_mlp.",
            entry="run_spec",
            build=_async_pop,
            rounds=1000,
            min_rounds=4,
            cells=1,
            updates_per_round=25,
            expected_steps=lambda seed, rounds: 250 * rounds,
            accuracy_floor=0.77,
        ),
    )
}
