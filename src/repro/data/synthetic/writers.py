"""FEMNIST stand-in: digit images grouped by synthetic writers.

The real FEMNIST collects handwritten digits from thousands of writers;
its defining property for this paper is that *samples carry writer IDs and
writers differ in style* (stroke width, slant), so partitioning by writer
yields natural feature-distribution skew (Section 4.2, real-world feature
imbalance).

We simulate that: digits share the global class prototypes, but every
writer has a persistent style — a 2D shear, an intensity gain, a blur level
(stroke thickness) and a brightness offset — applied to all of their
samples.  Writer identity is stored in ``ArrayDataset.groups``.

The style transform uses :mod:`scipy.ndimage`, imported inside
:func:`_apply_style` so that ``import repro`` stays numpy + stdlib and
only generating this dataset loads scipy.
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import ArrayDataset, DatasetInfo
from repro.data.synthetic.images import _balanced_labels, _smooth_field


def _writer_style(rng: np.random.Generator) -> dict:
    return {
        "shear": rng.uniform(-0.35, 0.35),
        "gain": rng.uniform(0.6, 1.4),
        "blur": rng.uniform(0.0, 1.2),
        "offset": rng.uniform(-0.3, 0.3),
    }


def _apply_style(image: np.ndarray, style: dict) -> np.ndarray:
    """Apply a writer's style to a (C, H, W) image."""
    from scipy import ndimage

    shear = style["shear"]
    matrix = np.array([[1.0, shear], [0.0, 1.0]])
    out = np.empty_like(image)
    size = image.shape[1]
    center = (size - 1) / 2.0
    offset = center - matrix @ np.array([center, center])
    for c in range(image.shape[0]):
        sheared = ndimage.affine_transform(
            image[c], matrix, offset=offset, order=1, mode="nearest"
        )
        if style["blur"] > 0:
            sheared = ndimage.gaussian_filter(sheared, sigma=style["blur"])
        out[c] = sheared
    return (style["gain"] * out + style["offset"]).astype(np.float32)


def make_femnist_like(
    n_train: int = 4000,
    n_test: int = 1000,
    num_writers: int = 40,
    image_size: int = 16,
    seed: int = 0,
) -> tuple[ArrayDataset, ArrayDataset, DatasetInfo]:
    """Generate the writer-grouped digit dataset.

    Train and test samples are drawn from the same writer pool (as in LEAF,
    where each writer's data is split train/test), so a global model faces
    the same style mixture at train and test time.
    """
    if num_writers < 2:
        raise ValueError("need at least 2 writers for feature skew to exist")
    rng = np.random.default_rng(seed + 505)
    num_classes = 10
    prototypes = np.stack([_smooth_field(rng, 1, image_size) for _ in range(num_classes)])
    styles = [_writer_style(rng) for _ in range(num_writers)]

    def render(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        labels = _balanced_labels(rng, n, num_classes)
        writers = rng.integers(0, num_writers, size=n)
        images = np.empty((n, 1, image_size, image_size), dtype=np.float32)
        noise = rng.normal(0.0, 0.35, size=images.shape).astype(np.float32)
        amplitudes = rng.uniform(0.8, 1.2, size=n).astype(np.float32)
        for i in range(n):
            base = 1.8 * amplitudes[i] * prototypes[labels[i]]
            images[i] = _apply_style(base, styles[writers[i]])
        images += noise
        return images, labels, writers

    train_x, train_y, train_w = render(n_train)
    test_x, test_y, test_w = render(n_test)
    info = DatasetInfo(
        name="femnist",
        modality="image",
        num_classes=num_classes,
        input_shape=(1, image_size, image_size),
        num_train=n_train,
        num_test=n_test,
        extra={"num_writers": num_writers},
    )
    train = ArrayDataset(train_x, train_y, groups=train_w)
    test = ArrayDataset(test_x, test_y, groups=test_w)
    return train, test, info
