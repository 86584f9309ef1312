"""Tests for the synthetic dataset generators and the registry."""

import hashlib

import numpy as np
import pytest

from repro.data import DATASET_NAMES, load_dataset
from repro.data.registry import paper_sizes
from repro.data.synthetic.fcube import octant_of
from repro.data.synthetic.images import flip_labels


class TestRegistry:
    def test_all_names_load(self):
        for name in DATASET_NAMES:
            train, test, info = load_dataset(name, n_train=60, n_test=30, seed=0)
            assert len(train) == 60
            assert len(test) == 30
            assert info.name == name

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            load_dataset("imagenet")

    def test_hyphen_alias(self):
        _, _, info = load_dataset("CIFAR-10", n_train=20, n_test=10)
        assert info.name == "cifar10"

    def test_paper_scale_sizes(self):
        assert paper_sizes("mnist") == (60_000, 10_000)
        assert paper_sizes("covtype") == (435_759, 145_253)

    def test_paper_sizes_unknown(self):
        with pytest.raises(KeyError):
            paper_sizes("nope")

    def test_deterministic_given_seed(self):
        a_train, _, _ = load_dataset("mnist", n_train=50, n_test=10, seed=5)
        b_train, _, _ = load_dataset("mnist", n_train=50, n_test=10, seed=5)
        np.testing.assert_array_equal(a_train.features, b_train.features)
        np.testing.assert_array_equal(a_train.labels, b_train.labels)

    def test_different_seeds_differ(self):
        a_train, _, _ = load_dataset("mnist", n_train=50, n_test=10, seed=5)
        b_train, _, _ = load_dataset("mnist", n_train=50, n_test=10, seed=6)
        assert not np.array_equal(a_train.features, b_train.features)

    @pytest.mark.parametrize("name", DATASET_NAMES)
    def test_info_matches_data(self, name):
        train, test, info = load_dataset(name, n_train=40, n_test=20, seed=1)
        assert train.features.shape[1:] == info.input_shape
        assert info.num_train == 40
        assert train.labels.max() < info.num_classes
        assert info.num_features == int(np.prod(info.input_shape))


class TestImageGenerators:
    def test_image_shapes(self):
        train, _, info = load_dataset("cifar10", n_train=30, n_test=10)
        assert train.features.shape == (30, 3, 16, 16)
        assert info.modality == "image"

    def test_all_classes_present(self):
        train, test, _ = load_dataset("svhn", n_train=200, n_test=100, seed=0)
        assert set(np.unique(train.labels)) == set(range(10))
        assert set(np.unique(test.labels)) == set(range(10))

    def test_svhn_marginal_is_skewed(self):
        train, _, _ = load_dataset("svhn", n_train=2000, n_test=100, seed=0)
        counts = train.class_counts(10)
        # Digit 1 should be clearly more common than digit 9.
        assert counts[1] > 2 * counts[9]

    def test_mnist_marginal_is_balanced(self):
        train, _, _ = load_dataset("mnist", n_train=1000, n_test=100, seed=0)
        counts = train.class_counts(10)
        # Balanced up to the 0.5% label-noise perturbation.
        assert counts.max() - counts.min() <= 15

    def test_features_are_float32(self):
        train, _, _ = load_dataset("fmnist", n_train=20, n_test=10)
        assert train.features.dtype == np.float32

    def test_size_validation(self):
        with pytest.raises(ValueError):
            load_dataset("mnist", n_train=0, n_test=10)

    def test_class_signal_exists(self):
        # Same-class images must be more similar than cross-class ones.
        train, _, _ = load_dataset("mnist", n_train=400, n_test=10, seed=0)
        flat = train.features.reshape(len(train), -1)
        labels = train.labels
        same, diff = [], []
        for k in range(10):
            members = flat[labels == k]
            centroid = members.mean(axis=0)
            same.append(np.linalg.norm(members - centroid, axis=1).mean())
        global_centroid = flat.mean(axis=0)
        spread = np.linalg.norm(flat - global_centroid, axis=1).mean()
        assert np.mean(same) < spread


class TestFlipLabels:
    def test_zero_rate_identity(self, rng):
        labels = rng.integers(0, 10, 100).astype(np.int64)
        out = flip_labels(rng, labels, 0.0, 10)
        np.testing.assert_array_equal(out, labels)

    def test_rate_validation(self, rng):
        with pytest.raises(ValueError):
            flip_labels(rng, np.zeros(5, dtype=np.int64), 1.5, 10)

    def test_flip_rate_approximate(self, rng):
        labels = np.zeros(10_000, dtype=np.int64)
        out = flip_labels(rng, labels, 0.3, 10)
        assert 0.25 < (out != labels).mean() < 0.35

    def test_flipped_labels_stay_in_range(self, rng):
        labels = rng.integers(0, 4, 1000).astype(np.int64)
        out = flip_labels(rng, labels, 0.5, 4)
        assert out.min() >= 0 and out.max() < 4

    def test_flips_never_keep_class(self, rng):
        labels = np.full(1000, 2, dtype=np.int64)
        out = flip_labels(rng, labels, 1.0 - 1e-9, 10)
        flipped = out[out != 2]
        assert len(flipped) > 900  # almost everything flipped
        assert (flipped != 2).all()


class TestFCube:
    def test_paper_sizes_by_default(self):
        train, test, info = load_dataset("fcube")
        assert len(train) == 4000
        assert len(test) == 1000
        assert info.input_shape == (3,)

    def test_label_rule_matches_x1_sign(self):
        train, _, _ = load_dataset("fcube", seed=0)
        x1 = train.features[:, 0]
        np.testing.assert_array_equal(train.labels, (x1 < 0).astype(np.int64))

    def test_margin_respected(self):
        train, _, _ = load_dataset("fcube", margin=0.2, seed=0)
        assert np.abs(train.features[:, 0]).min() >= 0.2

    def test_margin_validation(self):
        with pytest.raises(ValueError):
            load_dataset("fcube", margin=1.5)

    def test_octant_of(self):
        points = np.array(
            [[1, 1, 1], [1, 1, -1], [-1, -1, -1], [1, -1, 1]], dtype=float
        )
        np.testing.assert_array_equal(octant_of(points), [7, 6, 0, 5])

    def test_octant_shape_check(self):
        with pytest.raises(ValueError):
            octant_of(np.zeros((4, 2)))

    def test_all_octants_populated(self):
        train, _, _ = load_dataset("fcube", seed=0)
        assert set(octant_of(train.features)) == set(range(8))


class TestFemnist:
    def test_groups_present(self):
        train, test, info = load_dataset("femnist", n_train=100, n_test=50, num_writers=5)
        assert train.groups is not None
        assert set(np.unique(train.groups)) <= set(range(5))
        assert info.extra["num_writers"] == 5

    def test_writer_count_validation(self):
        with pytest.raises(ValueError):
            load_dataset("femnist", n_train=20, n_test=10, num_writers=1)

    def test_bits_pinned(self):
        # The writer style's scipy calls define these exact arrays.
        train, test, _ = load_dataset(
            "femnist", n_train=64, n_test=16, num_writers=4, seed=0
        )
        digest = hashlib.sha256()
        for split in (train, test):
            for array in (split.features, split.labels, split.groups):
                digest.update(array.tobytes())
        assert digest.hexdigest()[:16] == "d2139a2c1027036f"

    def test_writers_have_distinct_styles(self):
        # Per-writer mean intensity should vary (gain/offset differ).
        train, _, _ = load_dataset("femnist", n_train=800, n_test=10, num_writers=8, seed=0)
        means = [
            train.features[train.groups == w].mean() for w in range(8)
        ]
        assert np.std(means) > 0.01


class TestTabular:
    def test_adult_imbalance(self):
        train, _, info = load_dataset("adult", n_train=2000, n_test=100, seed=0)
        positive_rate = train.labels.mean()
        assert 0.18 < positive_rate < 0.30
        assert info.input_shape == (123,)

    def test_adult_features_are_onehot_blocks(self):
        train, _, _ = load_dataset("adult", n_train=50, n_test=10, seed=0)
        # Each row has exactly one 1 per block: total = number of blocks (10).
        np.testing.assert_allclose(train.features.sum(axis=1), 10.0)

    def test_rcv1_rows_l2_normalized(self):
        train, _, _ = load_dataset("rcv1", n_train=30, n_test=10, num_features=500)
        norms = np.linalg.norm(train.features, axis=1)
        np.testing.assert_allclose(norms, 1.0, rtol=1e-5)

    def test_rcv1_sparse(self):
        train, _, _ = load_dataset("rcv1", n_train=30, n_test=10, num_features=1000)
        nonzero_frac = (train.features != 0).mean()
        assert nonzero_frac < 0.05

    def test_rcv1_feature_validation(self):
        with pytest.raises(ValueError):
            load_dataset("rcv1", n_train=10, n_test=10, num_features=5)

    def test_covtype_shape(self):
        train, _, info = load_dataset("covtype", n_train=40, n_test=20)
        assert train.features.shape == (40, 54)
        assert info.num_classes == 2

    def test_train_test_same_distribution(self):
        # Regression test for the bug where class-conditional block
        # distributions were redrawn per split: per-class feature means of
        # train and test must agree closely.
        train, test, _ = load_dataset("adult", n_train=3000, n_test=3000, seed=0)
        for k in (0, 1):
            train_mean = train.features[train.labels == k].mean(axis=0)
            test_mean = test.features[test.labels == k].mean(axis=0)
            assert np.abs(train_mean - test_mean).max() < 0.08
