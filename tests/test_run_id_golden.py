"""Golden run ids: a refactor of the spec layer must move no run id.

A run id keys every stored result, so a changed one silently orphans a
store and splits a resumed matrix.  These pins cover the paper's Table 3
matrix, the shipped example spec and the end-to-end benchmark's four
workloads (built by ``benchmarks/e2e/workloads.py`` itself, at seed 0).
A change that means to move one re-pins it here and says why.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from repro.spec import RunSpec

ROOT = Path(__file__).resolve().parents[1]

#: workload name -> digest of its specs' run ids at seed 0
WORKLOAD_DIGESTS = {
    "cell_cnn": "a9955bcf3e322ff2",
    "rounds_mlp": "da1f19c0243771fb",
    "sweep_jobs": "52720e3c2926a1ad",
    "async_pop": "e878b51e1573684f",
}


def digest(specs) -> str:
    """16 hex digits of SHA-256 over the sorted, newline-joined run ids."""
    run_ids = "\n".join(sorted(spec.run_id() for spec in specs))
    return hashlib.sha256(run_ids.encode("utf-8")).hexdigest()[:16]


@pytest.fixture(scope="module")
def workloads():
    name = "_e2e_workloads_under_test"
    spec = importlib.util.spec_from_file_location(
        name, ROOT / "benchmarks" / "e2e" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses resolve annotations through it
    try:
        spec.loader.exec_module(module)
        yield module.WORKLOADS
    finally:
        del sys.modules[name]


def test_table3_matrix():
    from repro.experiments.table3 import table3_specs

    specs = [spec for trials in table3_specs().values() for spec in trials]
    assert len(specs) == 176
    assert digest(specs) == "f97df7bcddbca431"


def test_example_spec_file():
    data = json.loads((ROOT / "examples" / "table3_cell.json").read_text())
    assert RunSpec.from_dict(data).run_id() == "a1ee26f195601a59"


@pytest.mark.parametrize("name", sorted(WORKLOAD_DIGESTS))
def test_benchmark_workload(workloads, name, tmp_path):
    workload = workloads[name]
    assert digest(workload.build(0, workload.rounds, tmp_path)) == WORKLOAD_DIGESTS[name]
