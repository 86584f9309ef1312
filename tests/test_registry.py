"""Tests for the unified component registry."""

import re

import pytest

from repro.registry import Registry


class TestRegistry:
    def make(self):
        reg = Registry("widget")
        reg.register("alpha", lambda: "a", summary="first")
        reg.register("beta", lambda: "b", summary="second")
        return reg

    def test_register_and_get(self):
        reg = self.make()
        assert reg.get("alpha")() == "a"
        assert reg.build("beta") == "b"

    def test_decorator_form(self):
        reg = Registry("widget")

        @reg.register("gamma", summary="decorated")
        def factory():
            return "g"

        assert reg.build("gamma") == "g"
        assert factory() == "g"  # the decorator returns the factory

    def test_duplicate_rejected(self):
        reg = self.make()
        with pytest.raises(ValueError, match="duplicate widget registration"):
            reg.register("alpha", lambda: "a2")

    def test_unknown_lists_available(self):
        reg = self.make()
        with pytest.raises(KeyError, match="alpha"):
            reg.get("nope")

    def test_names_keep_registration_order(self):
        assert self.make().names() == ("alpha", "beta")

    def test_entries_carry_summaries(self):
        entries = self.make().entries()
        assert [e.summary for e in entries] == ["first", "second"]

    def test_container_protocol(self):
        reg = self.make()
        assert "alpha" in reg
        assert "nope" not in reg
        assert len(reg) == 2
        assert list(reg) == ["alpha", "beta"]

    def test_default_normalize_folds_case_and_separators(self):
        reg = self.make()
        assert reg.get("ALPHA") is reg.get("alpha")
        reg.register("cifar10", lambda: "c")
        assert reg.build("CIFAR-10") == "c"
        assert reg.build("cifar_10") == "c"

    def test_custom_normalize(self):
        reg = Registry("case-sensitive", normalize=lambda name: name)
        reg.register("Exact", lambda: 1)
        assert "Exact" in reg
        assert "exact" not in reg


class TestLiveRegistries:
    """The real component registries built on the unified class."""

    def test_datasets(self):
        from repro.data import DATASETS

        assert set(DATASETS.names()) >= {"mnist", "cifar10", "adult", "rcv1"}
        assert all(entry.summary for entry in DATASETS.entries())

    def test_image_summaries_name_the_default_shape(self):
        from repro.data import DATASETS, load_dataset

        image_names = []
        for entry in DATASETS.entries():
            _, _, info = load_dataset(entry.name, n_train=20, n_test=10)
            if info.modality != "image":
                continue
            image_names.append(entry.name)
            match = re.search(r"(\d+)x(\d+)", entry.summary)
            assert match, f"{entry.name} summary {entry.summary!r} names no HxW"
            shape = tuple(int(side) for side in match.groups())
            assert shape == info.input_shape[1:], (entry.name, entry.summary)
        assert set(image_names) == {"mnist", "fmnist", "cifar10", "svhn", "femnist"}

    def test_models(self):
        from repro.models import MODELS

        assert set(MODELS.names()) >= {"cnn", "mlp", "logistic", "resnet20"}

    def test_algorithms(self):
        from repro.federated.algorithms import ALGORITHMS

        assert ALGORITHMS.names()[:4] == ("fedavg", "fedprox", "scaffold", "fednova")

    def test_codecs(self):
        from repro.comm import CODECS

        assert set(CODECS.names()) >= {"identity", "float16", "qsgd", "topk"}

    def test_partitions_parse(self):
        from repro.partition import PARTITIONS, parse_strategy

        assert len(PARTITIONS) > 0
        assert parse_strategy("dir(0.5)").beta == 0.5
