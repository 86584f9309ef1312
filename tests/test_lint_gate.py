"""Tests for the structural gates in ``tools/lint.py``."""

import importlib.util
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location("lint_gate", REPO / "tools" / "lint.py")
lint = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(lint)


class TestTrackedArtifacts:
    def test_current_repo_passes(self):
        assert lint.check_tracked_artifacts(REPO) == []

    def test_tracked_pycache_rejected(self, tmp_path):
        import shutil
        import subprocess

        if shutil.which("git") is None:
            import pytest

            pytest.skip("git not available")
        subprocess.run(["git", "init", "-q", str(tmp_path)], check=True)
        cache = tmp_path / "pkg" / "__pycache__"
        cache.mkdir(parents=True)
        (cache / "mod.cpython-311.pyc").write_bytes(b"\x00")
        (tmp_path / "results").mkdir()
        (tmp_path / "results" / "run.json").write_text("{}")
        (tmp_path / "BENCH_core.tmp").write_text("{}")
        (tmp_path / "keep.py").write_text("x = 1\n")
        subprocess.run(
            ["git", "-C", str(tmp_path), "add", "-f", "."], check=True
        )
        problems = lint.check_tracked_artifacts(tmp_path)
        assert len(problems) == 3
        assert any("__pycache__" in p for p in problems)
        assert any("results/run.json" in p for p in problems)
        assert any("BENCH_core.tmp" in p for p in problems)
        assert not any("keep.py" in p for p in problems)

    def test_golden_bench_outputs_allowed(self):
        # benchmarks/results/ is curated output, tracked on purpose.
        assert not lint._is_tracked_artifact("benchmarks/results/fig8.txt")
        assert lint._is_tracked_artifact("results/adult__fedavg__abc.json")
        assert lint._is_tracked_artifact("src/repro/__pycache__/spec.pyc")

    def test_outside_git_skips(self, tmp_path):
        assert lint.check_tracked_artifacts(tmp_path / "nowhere") == []

