"""Tests for the leaderboard (per-setting algorithm ranking)."""

import json

import pytest

from repro.experiments.leaderboard import Leaderboard
from repro.experiments.runner import TrialSummary
from repro.experiments.store import ResultStore


def summary(dataset, partition, algorithm, accs):
    return TrialSummary(dataset, partition, algorithm, accuracies=list(accs))


TRIALS = [
    ("mnist", "#C=1", "fedavg", [0.30, 0.32]),
    ("mnist", "#C=1", "fedprox", [0.40, 0.42]),
    ("mnist", "#C=1", "scaffold", [0.10, 0.12]),
    ("mnist", "iid", "fedavg", [0.99]),
    ("mnist", "iid", "fedprox", [0.98]),
]


@pytest.fixture
def board():
    b = Leaderboard()
    for trial in TRIALS:
        b.add(summary(*trial))
    return b


class TestLeaderboard:
    def test_settings_listed(self, board):
        assert board.settings == [("mnist", "#C=1"), ("mnist", "iid")]

    def test_algorithms_union(self, board):
        assert board.algorithms() == ["fedavg", "fedprox", "scaffold"]

    def test_ranking_order(self, board):
        ranking = board.ranking("mnist", "#C=1")
        assert [name for name, _ in ranking] == ["fedprox", "fedavg", "scaffold"]

    def test_best(self, board):
        assert board.best("mnist", "#C=1") == "fedprox"
        assert board.best("mnist", "iid") == "fedavg"

    def test_win_counts(self, board):
        assert board.win_counts() == {"fedprox": 1, "fedavg": 1}

    def test_unknown_setting(self, board):
        with pytest.raises(KeyError):
            board.ranking("cifar10", "iid")

    def test_empty_summary_rejected(self):
        with pytest.raises(ValueError):
            Leaderboard().add(summary("d", "p", "a", []))

    def test_replacement(self, board):
        board.add(summary("mnist", "iid", "fedavg", [0.10]))
        assert board.best("mnist", "iid") == "fedprox"

    def test_render_marks_winner(self, board):
        text = board.render()
        assert "*" in text
        assert "wins:" in text
        assert "fedprox" in text

    def test_render_empty(self):
        assert "(empty" in Leaderboard().render()

    def test_missing_cell_rendered_as_dash(self, board):
        # scaffold has no iid entry.
        lines = [l for l in board.render().splitlines() if "iid" in l]
        assert "-" in lines[0]

    def test_roundtrip_json(self, board, tmp_path):
        # The board's record is the result store: one JSON run per trial,
        # which ResultStore.leaderboard() folds back into the same board.
        for index, (dataset, partition, algorithm, accs) in enumerate(TRIALS):
            for seed, accuracy in enumerate(accs):
                record = {
                    "dataset": dataset,
                    "partition": partition,
                    "algorithm": algorithm,
                    "final_accuracy": accuracy,
                }
                path = tmp_path / f"run{index}_{seed}.json"
                path.write_text(json.dumps(record))
        loaded = ResultStore(tmp_path).leaderboard()
        assert loaded.settings == board.settings
        assert loaded.best("mnist", "#C=1") == "fedprox"
        assert loaded.win_counts() == board.win_counts()
        assert loaded.render() == board.render()
