"""Dataset registry: ``load_dataset("mnist")`` etc.

Names match the paper's Table 2 and live in the unified
:class:`repro.registry.Registry` (one instance per component family;
see ``repro list``).  Every loader accepts ``seed`` and size overrides;
``paper_scale=True`` requests the original sizes (slow on CPU —
intended for users with time, not for the test suite).
"""

from __future__ import annotations

from repro.data.dataset import ArrayDataset, DatasetInfo
from repro.data import synthetic
from repro.registry import Registry

# Paper's Table 2 sizes, used when paper_scale=True.
_PAPER_SIZES = {
    "mnist": (60_000, 10_000),
    "fmnist": (60_000, 10_000),
    "cifar10": (50_000, 10_000),
    "svhn": (73_257, 26_032),
    "adult": (32_561, 16_281),
    "rcv1": (15_182, 5_060),
    "covtype": (435_759, 145_253),
    "fcube": (4_000, 1_000),
    "femnist": (341_873, 40_832),
}

DATASETS = Registry("dataset")
# Image summaries name the stand-ins' default shape; paper_scale changes
# sample counts only, never the 16x16 geometry.
DATASETS.register(
    "mnist", synthetic.make_mnist_like, summary="16x16 grayscale digits (MNIST stand-in)"
)
DATASETS.register(
    "fmnist",
    synthetic.make_fmnist_like,
    summary="16x16 grayscale apparel (FMNIST stand-in)",
)
DATASETS.register(
    "cifar10", synthetic.make_cifar10_like, summary="16x16 RGB objects (CIFAR-10 stand-in)"
)
DATASETS.register(
    "svhn", synthetic.make_svhn_like, summary="16x16 RGB house numbers (SVHN stand-in)"
)
DATASETS.register(
    "femnist",
    synthetic.make_femnist_like,
    summary="16x16 grayscale per-writer digits (real-world skew)",
)
DATASETS.register("fcube", synthetic.make_fcube, summary="3-feature synthetic cube")
DATASETS.register("adult", synthetic.make_adult_like, summary="tabular census income")
DATASETS.register("rcv1", synthetic.make_rcv1_like, summary="sparse text categorization")
DATASETS.register("covtype", synthetic.make_covtype_like, summary="tabular forest cover")

DATASET_NAMES = DATASETS.names()


def load_dataset(
    name: str,
    n_train: int | None = None,
    n_test: int | None = None,
    seed: int = 0,
    paper_scale: bool = False,
    cache: bool = False,
    **kwargs,
) -> tuple[ArrayDataset, ArrayDataset, DatasetInfo]:
    """Load (generate) a dataset by its paper name.

    Parameters
    ----------
    name:
        One of :data:`DATASET_NAMES` (``cifar10`` accepts ``cifar-10`` too).
    n_train, n_test:
        Override the generator's reduced-scale defaults.
    paper_scale:
        Use the original Table 2 sizes instead (overridden by explicit
        ``n_train``/``n_test``).
    cache:
        Serve the build through :mod:`repro.data.build_cache`: memoized
        in-process per ``(name, sizes, seed, kwargs)`` and, when a spill
        directory is configured (the sweep scheduler does), mmapped from
        ``.npy`` files instead of regenerated.  Cached arrays are
        read-only.
    kwargs:
        Forwarded to the generator (e.g. ``num_writers`` for femnist,
        ``num_features`` for rcv1).
    """
    generator = DATASETS.get(name)
    if paper_scale:
        paper_train, paper_test = paper_sizes(name)
        n_train = n_train if n_train is not None else paper_train
        n_test = n_test if n_test is not None else paper_test
    if n_train is not None:
        kwargs["n_train"] = n_train
    if n_test is not None:
        kwargs["n_test"] = n_test
    if cache:
        from repro.data import build_cache

        key = build_cache.dataset_key(name, seed, kwargs)
        return build_cache.cached_dataset(
            key, lambda: generator(seed=seed, **kwargs)
        )
    return generator(seed=seed, **kwargs)


def dataset_info(name: str, **kwargs) -> DatasetInfo:
    """Info for a dataset without keeping the arrays around."""
    _, _, info = load_dataset(name, **kwargs)
    return info


def paper_sizes(name: str) -> tuple[int, int]:
    """The original (train, test) sizes from the paper's Table 2."""
    key = name.lower().replace("-", "")
    if key not in _PAPER_SIZES:
        raise KeyError(f"unknown dataset {name!r}")
    return _PAPER_SIZES[key]
