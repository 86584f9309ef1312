#!/usr/bin/env python
"""In-process A/B of the eager training step: this tree against ``--ref``.

Usage (from the repository root)::

    python tools/ab_step.py --ref HEAD~1
    make ab-step REF=HEAD~1

Separate runs on a shared host are too noisy for a change of a few
microseconds per step, so both trees run in one interpreter.  ``REF``'s
``src/`` is extracted with ``git archive`` into a temporary directory;
each tree's ``repro`` is imported in turn and its ``repro*`` entries of
``sys.modules`` are swapped in before each of its timed blocks (call-time
imports inside the library then resolve to the right tree).

For the adult MLP and the paper CNN on MNIST (batch 32 each) the two
sides alternate blocks of eager SGD steps (200 MLP or 10 CNN steps), the
first side switching every block; each block is timed in process CPU
time at one BLAS thread.  It prints each side's median microseconds per
step and the quartiles of the per-pair ratio this tree / ``REF`` (below
1 is faster).  Both sides must report the same first three losses.
"""

from __future__ import annotations

import os

# Before NumPy loads: OpenBLAS reads its pool size at load time only.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tarfile  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]

#: (label, dataset, model, steps per timed block) of each timed step
MODELS = (("adult-mlp", "adult", "mlp", 200), ("mnist-cnn", "mnist", "cnn", 10))
BATCH = 32
#: timed blocks per side
BLOCKS = 30


def extract(ref: str, into: Path) -> Path:
    """``ref``'s ``src/`` tree under ``into``; returns that ``src``."""
    archive = into / "src.tar"
    with archive.open("wb") as out:
        subprocess.run(
            ["git", "-C", str(ROOT), "archive", "--format=tar", ref, "src"],
            stdout=out,
            check=True,
        )
    with tarfile.open(archive) as tar:
        tar.extractall(into, filter="data")
    return into / "src"


def _repro_names() -> list[str]:
    return [n for n in sys.modules if n == "repro" or n.startswith("repro.")]


def import_tree(src: Path) -> dict:
    """Import ``src``'s ``repro`` and take its ``sys.modules`` entries out."""
    for name in _repro_names():
        del sys.modules[name]
    sys.path.insert(0, str(src))
    try:
        __import__("repro.experiments.runner")
    finally:
        sys.path.remove(str(src))
    modules = {name: sys.modules.pop(name) for name in _repro_names()}
    if Path(modules["repro"].__file__).resolve().parent != (src / "repro").resolve():
        raise RuntimeError(f"imported repro from the wrong tree for {src}")
    return modules


def install(modules: dict) -> None:
    for name in _repro_names():
        del sys.modules[name]
    sys.modules.update(modules)


def make_step(modules: dict, dataset: str, model_name: str):
    """One eager SGD step of ``model_name`` on a fixed batch, as the
    trainer takes it (zero_grad, forward, cross-entropy, backward, step)."""
    install(modules)
    registry = modules["repro.data.registry"]
    build_model = modules["repro.models.registry"].build_model
    F = modules["repro.grad.functional"]
    Tensor = modules["repro.grad.tensor"].Tensor
    SGD = modules["repro.grad.optim"].SGD
    _, _, info = registry.load_dataset(dataset, n_train=64, n_test=16, seed=0)
    model = build_model(model_name, info, seed=53)
    model.train()
    rng = np.random.default_rng(5)
    features = rng.standard_normal((BATCH, *info.input_shape)).astype(np.float32)
    if model_name == "mlp":
        features = features.reshape(BATCH, -1)
    labels = rng.integers(0, info.num_classes, size=BATCH)
    optimizer = SGD(model.parameters(), lr=0.01, momentum=0.9)

    def step():
        optimizer.zero_grad()
        loss = F.cross_entropy(model(Tensor(features)), labels)
        loss.backward()
        optimizer.step()
        return loss.item()

    return step


def time_block(modules: dict, step, steps: int) -> float:
    """CPU microseconds per step over one block."""
    install(modules)
    start = time.process_time()
    for _ in range(steps):
        step()
    return (time.process_time() - start) / steps * 1e6


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ref", required=True, help="git revision to compare against")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="ab_step_") as tmp:
        sides = {
            "ref": import_tree(extract(args.ref, Path(tmp))),
            "this": import_tree(ROOT / "src"),
        }
        print(f"ref {args.ref} vs this tree: {BLOCKS} blocks per side, "
              f"batch {BATCH}, 1 BLAS thread, CPU time")
        for label, dataset, model_name, block_steps in MODELS:
            steps, losses = {}, {}
            for name, modules in sides.items():
                steps[name] = make_step(modules, dataset, model_name)
                losses[name] = [steps[name]() for _ in range(3)]
            if losses["ref"] != losses["this"]:
                print(f"{label}: losses differ: {losses}")
                return 1
            times: dict[str, list[float]] = {"ref": [], "this": []}
            for block in range(BLOCKS):
                order = ("ref", "this") if block % 2 == 0 else ("this", "ref")
                for name in order:
                    times[name].append(
                        time_block(sides[name], steps[name], block_steps)
                    )
            ratios = [new / old for new, old in zip(times["this"], times["ref"])]
            q1, median, q3 = quartiles(ratios)
            print(
                f"{label}: ref {statistics.median(times['ref']):.1f} us/step, "
                f"this {statistics.median(times['this']):.1f} us/step, "
                f"ratio median {median:.3f} (q1 {q1:.3f}, q3 {q3:.3f})"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
