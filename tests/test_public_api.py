"""Meta-tests on the public API surface: imports, exports, documentation."""

import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))

PUBLIC_MODULES = [
    "repro",
    "repro.grad",
    "repro.grad.nn",
    "repro.grad.optim",
    "repro.grad.functional",
    "repro.grad.init",
    "repro.grad.serialize",
    "repro.data",
    "repro.data.synthetic",
    "repro.data.transforms",
    "repro.partition",
    "repro.partition.stats",
    "repro.models",
    "repro.federated",
    "repro.federated.privacy",
    "repro.federated.systems",
    "repro.comm",
    "repro.comm.codecs",
    "repro.comm.channel",
    "repro.metrics",
    "repro.experiments",
    "repro.experiments.table3",
    "repro.experiments.leaderboard",
    "repro.experiments.store",
    "repro.experiments.plotting",
    "repro.experiments.centralized",
    "repro.cli",
]


@pytest.mark.parametrize("name", PUBLIC_MODULES)
def test_module_imports_and_documented(name):
    module = importlib.import_module(name)
    assert module.__doc__, f"{name} lacks a module docstring"


@pytest.mark.parametrize(
    "name",
    [n for n in PUBLIC_MODULES if hasattr(importlib.import_module(n), "__all__")],
)
def test_all_exports_resolve(name):
    module = importlib.import_module(name)
    for symbol in module.__all__:
        assert hasattr(module, symbol), f"{name}.__all__ lists missing {symbol}"


def test_public_classes_documented():
    undocumented = []
    for name in PUBLIC_MODULES:
        module = importlib.import_module(name)
        for attr_name in getattr(module, "__all__", []):
            attr = getattr(module, attr_name)
            if inspect.isclass(attr) or inspect.isfunction(attr):
                if attr.__module__.startswith("repro") and not attr.__doc__:
                    undocumented.append(f"{name}.{attr_name}")
    assert not undocumented, f"undocumented public items: {undocumented}"


def test_top_level_quickstart_symbols():
    import repro

    assert callable(repro.run_federated_experiment)
    assert repro.__version__


def test_no_circular_import_order_dependence():
    # Importing the deepest federated module first must not break.
    import importlib
    import sys

    saved = {k: v for k, v in sys.modules.items() if k.startswith("repro")}
    for k in list(saved):
        del sys.modules[k]
    try:
        importlib.import_module("repro.federated.algorithms.scaffold")
        importlib.import_module("repro")
    finally:
        sys.modules.update(saved)


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example_imports(path):
    # Under a non-__main__ name the guarded main() does not run, so this
    # checks only that every name the example imports still exists.
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)


def test_import_path_loads_no_scipy():
    # Every run pays the import path's cost, so it stays numpy + stdlib;
    # scipy is loaded only when a FEMNIST dataset is generated.
    script = (
        "import sys\n"
        "import repro, repro.cli, repro.experiments.runner\n"
        "assert 'scipy' not in sys.modules, 'import repro loaded scipy'\n"
        "from repro.data import load_dataset\n"
        "load_dataset('femnist', n_train=8, n_test=4, num_writers=2)\n"
        "assert 'scipy' in sys.modules, 'FEMNIST generation did not load scipy'\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    subprocess.run([sys.executable, "-c", script], env=env, check=True)
