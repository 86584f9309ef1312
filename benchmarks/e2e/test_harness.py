"""Self-test of the benchmark harness (not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Runs every workload through the same code path as a real run at a few
percent of the work, and checks the file shapes, the span-target table,
the memory measurement and ``compare``.  Finishes in under a minute.
"""

from __future__ import annotations

import copy
import json
import math
import re
import subprocess
import sys

import pytest

import compare
import run
import tracing
from metrics import END_TO_END, PER_LAYER, REPORT_ONLY
from workloads import WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
#: fraction of the committed work the self-test runs
REDUCED = 0.03


def test_benchmark_json_is_the_manifest_and_within_the_contract():
    committed = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert committed == run.manifest()
    assert set(committed) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert 2 <= len(committed["workloads"]) <= 8
    assert 1 <= len(committed["end_to_end"]) <= 16
    assert 1 <= len(committed["per_layer"]) <= 128
    assert isinstance(committed["run_seconds"], int) and 1 <= committed["run_seconds"] <= 60
    names = []
    for workload in committed["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in committed["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in committed["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in committed["end_to_end"] + committed["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
        names.append(metric["name"])
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    bounds = {m["name"]: m["bound"] for m in committed["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_every_span_target_resolves_and_a_stale_one_is_named():
    for target in tracing.TARGETS:
        tracing._resolve(target)
    stale = tracing.Target("server.run_round", "repro.federated.server:FederatedServer",
                           "run_one_round")
    with pytest.raises(tracing.TargetError, match="FederatedServer.run_one_round"):
        tracing._resolve(stale)


def test_hit_predictions_flag_a_dropped_layer_and_a_leaking_one():
    problems = tracing.check_hits("C", {"repro.grad.capture:TrainingEngine.step": 3})
    assert any("runner.run_spec expected to run" in p for p in problems)
    assert any("TrainingEngine.step predicted exactly zero, 3 calls" in p for p in problems)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_at_reduced_work(name):
    workload = WORKLOADS[name]
    plain = run.measure(workload, seed=0, scale=REDUCED, trace=False, setup_samples=2)
    traced = run.measure(workload, seed=0, scale=REDUCED, trace=True)
    for result in (plain, traced):
        assert result["check_failures"] == []
        assert result["failed"] == 0 and result["attempted"] >= 1
    assert plain["per_layer"] is None and len(plain["setup_samples"]) == 2
    assert list(plain["end_to_end"]) == [m.name for m in END_TO_END]
    assert list(traced["per_layer"]) == [m.name for m in PER_LAYER]
    values = [*plain["end_to_end"].values(), *traced["per_layer"].values()]
    assert all(isinstance(v, float) and math.isfinite(v) for v in values)
    assert all(v > 0 for v in plain["end_to_end"].values())
    # The wrappers change no result, and the hash repeats run to run.
    assert plain["history_sha256"] == traced["history_sha256"]
    assert traced["per_layer"]["trace.coverage"] >= 0.95


def test_one_run_prints_the_result_object_last(capsys):
    code = run.main(["--workload", "rounds_mlp", "--seed", "3", "--seconds", "0.5",
                     "--trace", "0"])
    last = capsys.readouterr().out.strip().splitlines()[-1]
    result = json.loads(last)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert set(result["metrics"]) == {m.name for m in END_TO_END}
    for metric in END_TO_END:
        assert result["metrics"][metric.name]["unit"] == metric.unit


def _result_file(path, wall):
    stats = compare.sample_stats
    entry = {
        "end_to_end": {
            "setup_s": stats([0.60, 0.61, 0.62]),
            "wall_s": stats([wall * 0.99, wall, wall * 1.01]),
            "local_steps_per_s": stats([1000 / wall * f for f in (0.99, 1.0, 1.01)]),
            "peak_rss_mb": stats([100.0, 100.5, 101.0]),
            "failed_share": stats([0.0]),
            "trace_overhead_ratio": stats([0.05]),
        }
    }
    record = {"environment": {}, "workloads": {"cell_cnn": entry, "async_pop": copy.deepcopy(entry)}}
    path.write_text(json.dumps(record))
    return path


def test_compare_passes_an_identical_pair_and_flags_a_slower_one(tmp_path, capsys):
    base = _result_file(tmp_path / "a.json", wall=20.0)
    same = _result_file(tmp_path / "b.json", wall=20.0)
    # 40%, not the issue's 20%: the timing bounds had to be widened to 0.25.
    slow = _result_file(tmp_path / "c.json", wall=28.0)
    assert run.main(["compare", str(base), str(same)]) == 0
    assert "worse" not in capsys.readouterr().out.replace("worse by", "")
    assert run.main(["compare", str(base), str(slow), "--record", str(tmp_path / "d.json")]) == 1
    rows = json.loads((tmp_path / "d.json").read_text())["two_sets"]["rows"]
    assert len(rows) == 2 * (len(END_TO_END) + len(REPORT_ONLY))
    verdicts = {(r["workload"], r["metric"]): r["verdict"] for r in rows}
    assert verdicts["cell_cnn", "wall_s"] == "worse"
    assert verdicts["cell_cnn", "local_steps_per_s"] == "worse"
    assert verdicts["cell_cnn", "setup_s"] == "ok"
    assert verdicts["cell_cnn", "trace_overhead_ratio"] == "report"


def test_compare_reports_unresolved_when_the_spread_exceeds_the_bound():
    wall = next(m for m in END_TO_END if m.name == "wall_s")
    steady = compare.sample_stats([20.0, 20.1, 20.2])
    noisy = compare.sample_stats([18.0, 21.0, 24.0])
    assert compare.verdict(wall, steady, noisy)[0] == "unresolved"
    clearly_faster = compare.sample_stats([10.0, 12.0, 14.0])
    assert compare.verdict(wall, steady, clearly_faster)[0] == "ok"


_HWM_CHILD = (
    "import sys; sys.path.insert(0, {here!r}); import environment; "
    "ballast = b'\\x01' * ({mb} << 20); print(environment.vm_hwm_kb())"
)


def test_peak_memory_is_the_childs_own_not_the_parents():
    ballast = b"\x01" * (320 << 20)  # resident in this (parent) process

    def child_hwm_mb(allocate_mb: int) -> float:
        code = _HWM_CHILD.format(here=str(run.HERE), mb=allocate_mb)
        out = subprocess.run(
            [sys.executable, "-c", code], check=True, capture_output=True, text=True,
            timeout=60,
        )
        return int(out.stdout) / 1024

    assert len(ballast) == 320 << 20
    small, large = child_hwm_mb(0), child_hwm_mb(200)
    assert large - small >= 150
    assert small < 300 and large < 300
