"""Persistence for experiment outcomes.

A :class:`ResultStore` is a directory of JSON files, one per run, keyed
by the spec's content hash (:meth:`repro.spec.RunSpec.run_id`) so two
runs differing in *any* scientific field — model, codec, fault schedule,
not just (dataset, partition, algorithm, seed) — land in different
files.  Each record embeds the full resolved spec, which makes the store
self-describing: ``completed(spec)`` answers "has this exact experiment
been run?" and lets sweeps and the Table 3 driver resume a half-finished
matrix without re-running a single cell.
"""

from __future__ import annotations

import json
import os
import pathlib
import warnings

from repro.federated.history import History
from repro.spec import RunSpec
from repro.experiments.leaderboard import Leaderboard
from repro.experiments.runner import ExperimentOutcome, TrialSummary


#: the train knobs a record's ``config`` block restates from its spec
_RECORD_TRAIN = (
    "num_rounds", "local_epochs", "batch_size", "lr",
    "sample_fraction", "sampler", "optimizer", "bn_policy",
)


def outcome_to_dict(outcome: ExperimentOutcome) -> dict:
    """Serialize an outcome to plain JSON-compatible data."""
    train, comm = outcome.spec.train, outcome.spec.comm
    return {
        "dataset": outcome.dataset,
        "partition": outcome.partition,
        "algorithm": outcome.algorithm,
        "model": outcome.model,
        "seed": outcome.seed,
        "final_accuracy": outcome.final_accuracy,
        "best_accuracy": outcome.best_accuracy,
        "history": outcome.history.to_dict(),
        # Virtual-population runs derive parties lazily and have no
        # materialized partition; record the absence explicitly.
        "party_sizes": (
            [int(s) for s in outcome.partition_result.sizes]
            if outcome.partition_result is not None
            else None
        ),
        "config": {
            **{name: getattr(train, name) for name in _RECORD_TRAIN},
            "codec": comm.codec,
            "codec_bits": comm.bits,
            "codec_k": comm.k,
        },
        "spec": outcome.spec.to_dict(),
        "run_id": outcome.spec.run_id(),
    }


class StoreWarning(UserWarning):
    """A store file could not be read; the record was skipped, not raised."""


class ResultStore:
    """Directory-backed store of experiment results, keyed by ``run_id``."""

    def __init__(self, root):
        self.root = pathlib.Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _spec_path(self, spec: RunSpec) -> pathlib.Path:
        # Readable prefix for humans; the run_id suffix is the key.
        return self.root / (
            f"{spec.data.name}__{spec.algorithm.name}__{spec.run_id()}.json"
        )

    def save(self, outcome: ExperimentOutcome) -> pathlib.Path:
        """Write a record atomically: a reader never sees a partial file.

        The JSON goes to a pid-suffixed ``.tmp`` sibling first and is
        published with ``os.replace``, so a writer killed mid-save
        leaves at most an orphaned temp file (invisible to the
        ``*.json`` globs every read path uses) and two processes racing
        on the same run_id end with one intact record — last writer
        wins whole, never interleaved.  The record is keyed by
        ``outcome.spec``, which every runner-produced outcome carries.
        """
        path = self._spec_path(outcome.spec)
        payload = json.dumps(outcome_to_dict(outcome), indent=2)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        tmp.write_text(payload)
        os.replace(tmp, path)
        return path

    def _load(self, path: pathlib.Path) -> dict | None:
        """Parse one record file; warn and return None if unreadable."""
        try:
            return json.loads(path.read_text())
        except (json.JSONDecodeError, UnicodeDecodeError, OSError) as error:
            warnings.warn(
                f"skipping unreadable result file {path}: {error}",
                StoreWarning,
                stacklevel=3,
            )
            return None

    def get(self, spec: RunSpec) -> dict | None:
        """The stored record for this exact spec, or None.

        Matches on ``run_id``, so the lookup is insensitive to the
        ``exec`` section (a serially-computed result satisfies a
        parallel run's query).  The lookup is O(1)-ish in the store
        size: the run_id is the filename's suffix, so a miss is one
        ``*__{run_id}.json`` glob that opens nothing — a fresh N-cell
        matrix costs O(N) lookups, never O(N²) JSON loads.
        """
        run_id = spec.run_id()
        path = self._spec_path(spec)
        if path.exists():
            record = self._load(path)
            if record is not None:
                return record
        # The dataset/algorithm prefix may differ if the file was copied
        # from another store; any canonical name carries the hash.
        for candidate in sorted(self.root.glob(f"*__{run_id}.json")):
            record = self._load(candidate)
            if record is not None and record.get("run_id") == run_id:
                return record
        return None

    def completed(self, spec: RunSpec) -> bool:
        """Whether this exact experiment already has a stored result."""
        return self.get(spec) is not None

    def history(self, spec: RunSpec) -> History | None:
        """The stored run's reloaded :class:`History`, or None."""
        record = self.get(spec)
        if record is None:
            return None
        return History.from_dict(record["history"])

    def records(self) -> list[dict]:
        """All stored run records, sorted by filename.

        Unparseable files (truncated by a pre-atomic-save crash, or
        damaged by hand) are skipped with a :class:`StoreWarning`
        instead of raising — one corrupt file cannot brick the store.
        """
        records = []
        for path in sorted(self.root.glob("*.json")):
            record = self._load(path)
            if record is not None:
                records.append(record)
        return records

    def query(
        self,
        dataset: str | None = None,
        partition: str | None = None,
        algorithm: str | None = None,
    ) -> list[dict]:
        """Records matching every given filter."""
        out = []
        for record in self.records():
            if dataset is not None and record["dataset"] != dataset:
                continue
            if partition is not None and record["partition"] != partition:
                continue
            if algorithm is not None and record["algorithm"] != algorithm:
                continue
            out.append(record)
        return out

    def specs(self) -> list[RunSpec]:
        """The resolved specs of every record that embeds one."""
        return [
            RunSpec.from_dict(record["spec"])
            for record in self.records()
            if "spec" in record
        ]

    def histories(
        self,
        dataset: str | None = None,
        partition: str | None = None,
        algorithm: str | None = None,
    ) -> list[History]:
        """Reload matching runs' histories into the analysis accessors.

        The inverse of persisting ``outcome.history.to_dict()``: curve
        accessors, ``cumulative_communication()`` and the systems-model
        replay all work on the reloaded objects.
        """
        return [
            History.from_dict(record["history"])
            for record in self.query(dataset, partition, algorithm)
        ]

    def leaderboard(self) -> Leaderboard:
        """Aggregate stored runs into a leaderboard (seeds become trials)."""
        grouped: dict[tuple[str, str, str], list[float]] = {}
        for record in self.records():
            key = (record["dataset"], record["partition"], record["algorithm"])
            grouped.setdefault(key, []).append(float(record["final_accuracy"]))
        board = Leaderboard()
        for (dataset, partition, algorithm), accuracies in grouped.items():
            board.add(
                TrialSummary(
                    dataset=dataset,
                    partition=partition,
                    algorithm=algorithm,
                    accuracies=accuracies,
                )
            )
        return board

    def __len__(self) -> int:
        return len(list(self.root.glob("*.json")))
