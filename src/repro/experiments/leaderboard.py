"""Leaderboard: rank algorithms per non-IID setting.

The paper: "We also maintain a leaderboard along with our code to rank
state-of-the-art federated learning algorithms on different non-IID
settings."  This module is that leaderboard — accumulate
:class:`~repro.experiments.runner.TrialSummary` entries, rank per
(dataset, partition) setting, and count wins per algorithm (the paper's
"number of times that performs best" rows).  It keeps no record of its
own: the runs in a :class:`~repro.experiments.store.ResultStore` are the
record, and :meth:`ResultStore.leaderboard
<repro.experiments.store.ResultStore.leaderboard>` rebuilds the board
from them.
"""

from __future__ import annotations

from collections import defaultdict

from repro.experiments.runner import TrialSummary


class Leaderboard:
    """Accumulates trial summaries and ranks algorithms per setting."""

    def __init__(self):
        # (dataset, partition) -> {algorithm: TrialSummary}
        self._entries: dict[tuple[str, str], dict[str, TrialSummary]] = defaultdict(dict)

    def add(self, summary: TrialSummary) -> None:
        """Record (or replace) an algorithm's result for a setting."""
        if not summary.accuracies:
            raise ValueError("summary has no trial accuracies")
        key = (summary.dataset, summary.partition)
        self._entries[key][summary.algorithm] = summary

    @property
    def settings(self) -> list[tuple[str, str]]:
        return sorted(self._entries)

    def algorithms(self) -> list[str]:
        names = set()
        for entries in self._entries.values():
            names.update(entries)
        return sorted(names)

    def ranking(self, dataset: str, partition: str) -> list[tuple[str, float]]:
        """Algorithms for one setting, best mean accuracy first."""
        key = (dataset, partition)
        if key not in self._entries:
            raise KeyError(f"no entries for {key}")
        entries = self._entries[key]
        return sorted(
            ((name, summary.mean) for name, summary in entries.items()),
            key=lambda item: item[1],
            reverse=True,
        )

    def best(self, dataset: str, partition: str) -> str:
        return self.ranking(dataset, partition)[0][0]

    def win_counts(self) -> dict[str, int]:
        """The paper's "number of times that performs best" row."""
        counts: dict[str, int] = defaultdict(int)
        for dataset, partition in self.settings:
            counts[self.best(dataset, partition)] += 1
        return dict(counts)

    def render(self) -> str:
        """Text table: one row per setting, one column per algorithm."""
        algorithms = self.algorithms()
        if not algorithms:
            return "(empty leaderboard)"
        header = f"{'dataset':10s} {'partition':16s} | " + " | ".join(
            f"{a:>18s}" for a in algorithms
        )
        lines = [header, "-" * len(header)]
        for dataset, partition in self.settings:
            entries = self._entries[(dataset, partition)]
            best = self.best(dataset, partition)
            cells = []
            for algorithm in algorithms:
                summary = entries.get(algorithm)
                if summary is None:
                    cells.append(f"{'-':>18s}")
                else:
                    marker = "*" if algorithm == best else " "
                    cells.append(f"{summary.format_cell():>17s}{marker}")
            lines.append(f"{dataset:10s} {partition:16s} | " + " | ".join(cells))
        wins = self.win_counts()
        lines.append("")
        lines.append(
            "wins: " + ", ".join(f"{a}={wins.get(a, 0)}" for a in algorithms)
        )
        return "\n".join(lines)
