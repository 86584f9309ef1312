"""The end-to-end benchmark's traced mode pins names under ``src/``.

``benchmarks/e2e/tracing.py`` wraps the functions listed in its
``TARGETS`` by ``module:Class.attr`` and predicts, per workload, which of
them run and which never do.  A refactor that renames a target or lets a
"never" target run is otherwise found only by ``make test-bench-harness``
— which tier-1 does not run and which the PR that broke it may not
repair.  These checks read the table by path and edit nothing there.
"""

import importlib.util
import itertools
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    name = "_e2e_tracing_under_test"
    spec = importlib.util.spec_from_file_location(name, TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses resolve annotations through it
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[name]


def test_every_target_resolves(tracing):
    """Own-``__dict__`` lookup, and a plain function where it is wrapped."""
    for target in tracing.TARGETS:
        tracing._resolve(target)  # raises TargetError naming the entry


def test_no_zero_target_on_a_base_of_a_hit_target(tracing):
    """A wrapped ``Base.attr`` counts every ``super().attr`` call from a
    subclass, so a target predicted *zero* on a workload cannot sit on a
    base class of one predicted *hit* there under the same attribute name
    (what forbids ``AsyncFederation(FederatedServer)``)."""
    on_classes = [
        (target, tracing._resolve(target)[0])
        for target in tracing.TARGETS
        if target.wrap and ":" in target.owner
    ]
    for (zero, base), (hit, cls) in itertools.permutations(on_classes, 2):
        if zero.attr == hit.attr and base is not cls and issubclass(cls, base):
            shared = set(zero.zero) & set(hit.hit)
            assert not shared, (
                f"{zero.label} is predicted zero on {sorted(shared)} but is a "
                f"base of {hit.label}, predicted hit there"
            )
