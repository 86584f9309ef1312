"""In-memory datasets.

Everything in this reproduction fits in RAM, so a dataset is simply a pair
of aligned NumPy arrays plus optional per-sample metadata (e.g. FEMNIST
writer IDs, which the real-world feature-skew partition groups by).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class DatasetInfo:
    """Static description of a dataset, mirroring the paper's Table 2."""

    name: str
    modality: str  # "image" or "tabular"
    num_classes: int
    input_shape: tuple[int, ...]  # (C, H, W) for images, (F,) for tabular
    num_train: int
    num_test: int
    extra: dict = field(default_factory=dict)

    @property
    def num_features(self) -> int:
        """Flattened feature count (the paper's '#features' column)."""
        return int(np.prod(self.input_shape))


class ArrayDataset:
    """A dataset backed by dense arrays.

    Parameters
    ----------
    features:
        ``(N, ...)`` float array — images as ``(N, C, H, W)``, tabular as
        ``(N, F)``.
    labels:
        ``(N,)`` integer class labels.
    groups:
        Optional ``(N,)`` integer group IDs (e.g. writer IDs for FEMNIST).
    """

    def __init__(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        groups: np.ndarray | None = None,
    ):
        features = np.asarray(features)
        labels = np.asarray(labels)
        if features.shape[0] != labels.shape[0]:
            raise ValueError(
                f"features ({features.shape[0]}) and labels ({labels.shape[0]}) "
                "disagree on sample count"
            )
        if labels.ndim != 1:
            raise ValueError(f"labels must be 1-D, got shape {labels.shape}")
        if not np.issubdtype(labels.dtype, np.integer):
            raise TypeError(f"labels must be integers, got {labels.dtype}")
        if labels.size and labels.min() < 0:
            # A negative index would silently wrap to the last classes.
            raise ValueError(f"labels must be non-negative, got {labels.min()}")
        if groups is not None:
            groups = np.asarray(groups)
            if groups.shape != labels.shape:
                raise ValueError("groups must align with labels")
        self.features = features
        self.labels = labels
        self.groups = groups

    def __len__(self) -> int:
        return int(self.labels.shape[0])

    def __getitem__(self, index):
        return self.features[index], self.labels[index]

    @property
    def num_classes(self) -> int:
        return int(self.labels.max()) + 1 if len(self) else 0

    def subset(self, indices: np.ndarray) -> "Subset":
        return Subset(self, indices)

    def class_counts(self, num_classes: int | None = None) -> np.ndarray:
        """Histogram of labels (length ``num_classes``)."""
        k = num_classes if num_classes is not None else self.num_classes
        return np.bincount(self.labels, minlength=k)

    def map_features(self, fn) -> "ArrayDataset":
        """Return a new dataset with ``fn`` applied to the feature array."""
        return ArrayDataset(fn(self.features), self.labels, self.groups)


class Subset:
    """A view of a dataset restricted to ``indices`` (no data copied)."""

    def __init__(self, dataset, indices: np.ndarray):
        indices = np.asarray(indices)
        if indices.ndim != 1:
            raise ValueError("indices must be 1-D")
        if len(indices) and (indices.min() < 0 or indices.max() >= len(dataset)):
            raise IndexError("subset indices out of range")
        self.dataset = dataset
        self.indices = indices

    def __len__(self) -> int:
        return int(len(self.indices))

    def __getitem__(self, index):
        return self.dataset[self.indices[index]]

    @property
    def features(self) -> np.ndarray:
        return self.dataset.features[self.indices]

    @property
    def labels(self) -> np.ndarray:
        return self.dataset.labels[self.indices]

    @property
    def groups(self) -> np.ndarray | None:
        base = getattr(self.dataset, "groups", None)
        return None if base is None else base[self.indices]

    def class_counts(self, num_classes: int | None = None) -> np.ndarray:
        labels = self.labels
        k = num_classes
        if k is None:
            k = int(labels.max()) + 1 if len(labels) else 0
        return np.bincount(labels, minlength=k)

    def materialize(self) -> ArrayDataset:
        """Copy the view into a standalone :class:`ArrayDataset`."""
        return ArrayDataset(self.features.copy(), self.labels.copy(), self.groups)
