"""Tests for ArrayDataset, Subset and DataLoader."""

import numpy as np
import pytest

from repro.data import ArrayDataset, DataLoader, Subset


@pytest.fixture
def dataset(rng):
    features = rng.standard_normal((20, 4)).astype(np.float32)
    labels = (np.arange(20) % 3).astype(np.int64)
    return ArrayDataset(features, labels)


class TestArrayDataset:
    def test_len(self, dataset):
        assert len(dataset) == 20

    def test_getitem(self, dataset):
        x, y = dataset[3]
        assert x.shape == (4,)
        assert y == 0

    def test_mismatched_lengths_rejected(self, rng):
        with pytest.raises(ValueError):
            ArrayDataset(rng.standard_normal((5, 2)), np.zeros(4, dtype=np.int64))

    def test_float_labels_rejected(self, rng):
        with pytest.raises(TypeError):
            ArrayDataset(rng.standard_normal((3, 2)), np.zeros(3))

    def test_2d_labels_rejected(self, rng):
        with pytest.raises(ValueError):
            ArrayDataset(rng.standard_normal((3, 2)), np.zeros((3, 1), dtype=np.int64))

    def test_negative_labels_rejected(self, rng):
        # -1 would index the last logit and silently train that class.
        with pytest.raises(ValueError, match="non-negative"):
            ArrayDataset(rng.standard_normal((3, 2)), np.array([0, -1, 1]))

    def test_empty_labels_accepted(self):
        empty = ArrayDataset(np.zeros((0, 2), np.float32), np.zeros(0, np.int64))
        assert len(empty) == 0 and empty.num_classes == 0

    def test_group_alignment_checked(self, rng):
        with pytest.raises(ValueError):
            ArrayDataset(
                rng.standard_normal((3, 2)),
                np.zeros(3, dtype=np.int64),
                groups=np.zeros(4, dtype=np.int64),
            )

    def test_num_classes(self, dataset):
        assert dataset.num_classes == 3

    def test_class_counts(self, dataset):
        counts = dataset.class_counts()
        assert counts.sum() == 20
        np.testing.assert_array_equal(counts, [7, 7, 6])

    def test_class_counts_with_minlength(self, dataset):
        counts = dataset.class_counts(num_classes=5)
        assert counts.shape == (5,)
        assert counts[3] == 0

    def test_map_features(self, dataset):
        doubled = dataset.map_features(lambda f: f * 2)
        np.testing.assert_allclose(doubled.features, dataset.features * 2)
        np.testing.assert_array_equal(doubled.labels, dataset.labels)


class TestSubset:
    def test_view_semantics(self, dataset):
        sub = Subset(dataset, np.array([0, 2, 4]))
        assert len(sub) == 3
        np.testing.assert_allclose(sub.features, dataset.features[[0, 2, 4]])

    def test_out_of_range_rejected(self, dataset):
        with pytest.raises(IndexError):
            Subset(dataset, np.array([25]))

    def test_2d_indices_rejected(self, dataset):
        with pytest.raises(ValueError):
            Subset(dataset, np.zeros((2, 2), dtype=int))

    def test_empty_subset(self, dataset):
        sub = Subset(dataset, np.array([], dtype=int))
        assert len(sub) == 0

    def test_groups_propagate(self, rng):
        ds = ArrayDataset(
            rng.standard_normal((6, 2)),
            np.zeros(6, dtype=np.int64),
            groups=np.arange(6),
        )
        sub = Subset(ds, np.array([1, 3]))
        np.testing.assert_array_equal(sub.groups, [1, 3])

    def test_groups_none_when_absent(self, dataset):
        assert Subset(dataset, np.array([0])).groups is None

    def test_materialize_copies(self, dataset):
        sub = Subset(dataset, np.array([0, 1]))
        solid = sub.materialize()
        solid.features[0, 0] = 999.0
        assert dataset.features[0, 0] != 999.0

    def test_class_counts(self, dataset):
        sub = Subset(dataset, np.array([0, 3, 6]))  # labels 0, 0, 0
        np.testing.assert_array_equal(sub.class_counts(3), [3, 0, 0])


class TestDataLoader:
    def test_batch_shapes(self, dataset):
        loader = DataLoader(dataset, batch_size=8)
        batches = list(loader)
        assert [len(y) for _, y in batches] == [8, 8, 4]

    def test_len_matches_batches(self, dataset):
        loader = DataLoader(dataset, batch_size=8)
        assert len(loader) == 3

    def test_drop_last(self, dataset):
        loader = DataLoader(dataset, batch_size=8, drop_last=True)
        assert len(loader) == 2
        assert all(len(y) == 8 for _, y in loader)

    def test_invalid_batch_size(self, dataset):
        with pytest.raises(ValueError):
            DataLoader(dataset, batch_size=0)

    def test_shuffle_reproducible(self, dataset):
        a = list(DataLoader(dataset, 8, shuffle=True, rng=np.random.default_rng(3)))
        b = list(DataLoader(dataset, 8, shuffle=True, rng=np.random.default_rng(3)))
        for (xa, ya), (xb, yb) in zip(a, b):
            np.testing.assert_array_equal(ya, yb)

    def test_shuffle_changes_order_across_epochs(self, dataset):
        loader = DataLoader(dataset, 20, shuffle=True, rng=np.random.default_rng(0))
        first = next(iter(loader))[1].copy()
        second = next(iter(loader))[1].copy()
        assert not np.array_equal(first, second)

    def test_no_shuffle_preserves_order(self, dataset):
        loader = DataLoader(dataset, 20)
        _, labels = next(iter(loader))
        np.testing.assert_array_equal(labels, dataset.labels)

    def test_every_sample_seen_once_per_epoch(self, dataset):
        loader = DataLoader(dataset, 7, shuffle=True, rng=np.random.default_rng(1))
        seen = np.concatenate([x[:, 0] for x, _ in loader])
        assert seen.shape[0] == len(dataset)
        np.testing.assert_allclose(np.sort(seen), np.sort(dataset.features[:, 0]))

    def test_works_on_subset(self, dataset):
        sub = Subset(dataset, np.array([0, 1, 2, 3, 4]))
        loader = DataLoader(sub, 2)
        assert sum(len(y) for _, y in loader) == 5
