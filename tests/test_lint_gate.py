"""Tests for the structural gates in ``tools/lint.py``."""

import importlib.util
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location("lint_gate", REPO / "tools" / "lint.py")
lint = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(lint)


class TestEventRegistry:
    def test_current_engine_passes(self):
        assert lint.check_event_registry(REPO / lint.ASYNC_ENGINE_FILE) == []

    def test_unhandled_kind_rejected(self, tmp_path):
        bad = tmp_path / "async_engine.py"
        bad.write_text(
            "@register_event\n"
            "class Orphan:\n"
            "    kind = 'orphan'\n"
            "class AsyncFederation:\n"
            "    def _handle_client_update(self, event):\n"
            "        pass\n"
        )
        problems = lint.check_event_registry(bad)
        assert any("no _handle_orphan" in p for p in problems)

    def test_dead_handler_rejected(self, tmp_path):
        bad = tmp_path / "async_engine.py"
        bad.write_text(
            "class AsyncFederation:\n"
            "    def _handle_ghost(self, event):\n"
            "        pass\n"
        )
        problems = lint.check_event_registry(bad)
        assert any("_handle_ghost" in p and "no registered" in p for p in problems)

    def test_event_without_kind_rejected(self, tmp_path):
        bad = tmp_path / "async_engine.py"
        bad.write_text(
            "@register_event\n"
            "class Nameless:\n"
            "    pass\n"
            "class AsyncFederation:\n"
            "    pass\n"
        )
        problems = lint.check_event_registry(bad)
        assert any("no literal string `kind`" in p for p in problems)

    def test_matched_pair_passes(self, tmp_path):
        good = tmp_path / "async_engine.py"
        good.write_text(
            "@register_event\n"
            "class Tick:\n"
            "    kind = 'tick'\n"
            "class AsyncFederation:\n"
            "    def _handle_tick(self, event):\n"
            "        pass\n"
        )
        assert lint.check_event_registry(good) == []


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


class TestCaptureRules:
    HEADER = (
        "_BINARY_UFUNCS = {'add': 1, 'mul': 2}\n"
        "_UNARY_UFUNCS = {'exp': 3}\n"
    )

    def test_current_capture_passes(self):
        assert lint.check_capture_rules(REPO / lint.CAPTURE_FILE) == []

    def test_dispatched_kind_without_rule_rejected(self, tmp_path):
        bad = tmp_path / "capture.py"
        bad.write_text(
            self.HEADER
            + "OP_RULES = {\n"
            "    'add': _OpRule(may_alias=True),\n"
            "    'mul': _OpRule(may_alias=True),\n"
            "    'exp': _OpRule(may_alias=True),\n"
            "}\n"
            "def f(rec, kind):\n"
            "    if rec.kind == 'relu':\n"
            "        pass\n"
        )
        (problem,) = lint.check_capture_rules(bad)
        assert "'relu'" in problem and "no OP_RULES entry" in problem

    def test_stale_rule_rejected(self, tmp_path):
        bad = tmp_path / "capture.py"
        bad.write_text(
            self.HEADER
            + "OP_RULES = {\n"
            "    'add': _OpRule(may_alias=True),\n"
            "    'mul': _OpRule(may_alias=True),\n"
            "    'exp': _OpRule(may_alias=True),\n"
            "    'ghost': _OpRule(may_alias=False),\n"
            "}\n"
        )
        (problem,) = lint.check_capture_rules(bad)
        assert "'ghost'" in problem and "stale" in problem

    def test_rule_without_may_alias_rejected(self, tmp_path):
        bad = tmp_path / "capture.py"
        bad.write_text(
            self.HEADER
            + "OP_RULES = {\n"
            "    'add': _OpRule(may_alias=True),\n"
            "    'mul': _OpRule(bwd_reads=('in',)),\n"
            "    'exp': _OpRule(may_alias=True),\n"
            "}\n"
        )
        (problem,) = lint.check_capture_rules(bad)
        assert "may_alias" in problem

    def test_tape_entry_tags_ignored(self, tmp_path):
        good = tmp_path / "capture.py"
        good.write_text(
            self.HEADER
            + "OP_RULES = {\n"
            "    'add': _OpRule(may_alias=True),\n"
            "    'mul': _OpRule(may_alias=True),\n"
            "    'exp': _OpRule(may_alias=True),\n"
            "}\n"
            "def walk(entries):\n"
            "    for kind, entry in entries:\n"
            "        if kind == 'op':\n"
            "            pass\n"
            "        if kind != 'bn':\n"
            "            pass\n"
        )
        assert lint.check_capture_rules(good) == []

    def test_kind_attribute_comparisons_collected(self, tmp_path):
        good = tmp_path / "capture.py"
        good.write_text(
            self.HEADER
            + "OP_RULES = {\n"
            "    'add': _OpRule(may_alias=True),\n"
            "    'mul': _OpRule(may_alias=True),\n"
            "    'exp': _OpRule(may_alias=True),\n"
            "    'matmul': _OpRule(may_alias=False),\n"
            "}\n"
            "def g(rec):\n"
            "    return rec.kind != 'matmul'\n"
        )
        assert lint.check_capture_rules(good) == []

    def test_missing_table_reported(self, tmp_path):
        empty = tmp_path / "capture.py"
        empty.write_text("x = 1\n")
        (problem,) = lint.check_capture_rules(empty)
        assert "OP_RULES" in problem
