"""Mini-batch iteration over in-memory datasets."""

from __future__ import annotations

import numpy as np


def epoch_order(n: int, rng: np.random.Generator | None) -> np.ndarray:
    """One epoch's sample order: ``0 .. n-1``, shuffled by ``rng`` if given.

    The one draw of a party's epoch: the serial :class:`DataLoader` and
    the stacked executor, which draws a round's epochs up front, both
    call it, so the two consume a party's generator identically.
    """
    order = np.arange(n)
    if rng is not None:
        rng.shuffle(order)
    return order


class DataLoader:
    """Iterate a dataset in mini-batches of ``(features, labels)`` arrays.

    Shuffling uses the provided generator so local training is reproducible
    per party and per round; each full iteration reshuffles.
    """

    def __init__(
        self,
        dataset,
        batch_size: int,
        shuffle: bool = False,
        rng: np.random.Generator | None = None,
        drop_last: bool = False,
    ):
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        if shuffle and rng is None:
            rng = np.random.default_rng()
        self.dataset = dataset
        self.batch_size = batch_size
        self.shuffle = shuffle
        self.rng = rng
        self.drop_last = drop_last

    def __len__(self) -> int:
        """Number of batches per epoch (the paper's local steps per epoch)."""
        n = len(self.dataset)
        if self.drop_last:
            return n // self.batch_size
        return (n + self.batch_size - 1) // self.batch_size

    def __iter__(self):
        n = len(self.dataset)
        order = epoch_order(n, self.rng if self.shuffle else None)
        features = self.dataset.features
        labels = self.dataset.labels
        stop = (n // self.batch_size) * self.batch_size if self.drop_last else n
        for start in range(0, stop, self.batch_size):
            batch = order[start : start + self.batch_size]
            yield features[batch], labels[batch]
