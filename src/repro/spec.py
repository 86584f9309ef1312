"""Typed, content-addressed experiment specification (``RunSpec``).

Every experiment this repository can run — a Table 3 cell, a codec
ladder point, a dropout sweep entry — is one :class:`RunSpec`: a nested,
serializable value object covering data, partition, model, algorithm,
training, communication, fault and execution settings plus the seed.
The spec is the single currency between layers:

- the CLI parses flags (or a ``--spec file.json``) into a ``RunSpec``;
- :func:`repro.experiments.runner.run_spec` executes one;
- sweeps and the Table 3 driver generate matrix cells with
  :meth:`RunSpec.with_overrides` instead of threading keyword arguments;
- :class:`repro.experiments.store.ResultStore` keys saved runs by
  :meth:`RunSpec.run_id` and embeds the full spec in every record.

Content addressing
------------------
``run_id()`` is a deterministic hash of the spec's *scientific* content:
canonical JSON (sorted keys, no whitespace) fed through SHA-256.  It is
stable across processes and ``PYTHONHASHSEED`` values, and it changes
when any result-affecting field changes.  The :class:`ExecSpec` section
(executor backend, compile switch, checkpoint cadence) is deliberately
excluded: executors are bitwise-identical by contract, so two runs
differing only in how they were executed share one ``run_id`` — a
result computed serially satisfies a stacked run's cache lookup.

Validation happens against the unified component registries
(:mod:`repro.registry`), so a spec naming an unknown dataset, model,
algorithm or codec fails fast with the live list of alternatives.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any


def _freeze_kwargs(kwargs: dict | None) -> dict:
    """Copy a kwargs mapping, insisting on JSON-compatible content."""
    kwargs = dict(kwargs or {})
    try:
        json.dumps(kwargs, sort_keys=True)
    except (TypeError, ValueError):
        raise TypeError(
            f"spec kwargs must be JSON-serializable, got {kwargs!r}"
        ) from None
    return kwargs


@dataclass(frozen=True)
class DataSpec:
    """Which dataset, at what size."""

    name: str
    n_train: int | None = None
    n_test: int | None = None
    #: generator extras (``num_writers`` for femnist, ``num_features``
    #: for rcv1, ...) — must be JSON-serializable
    kwargs: dict = field(default_factory=dict)


@dataclass(frozen=True)
class PartitionSpec:
    """How the dataset is split across parties."""

    #: the paper's strategy notation (``"iid"``, ``"#C=2"``, ``"dir(0.5)"``)
    strategy: str
    num_parties: int = 10


@dataclass(frozen=True)
class ModelSpec:
    """Which model the parties train."""

    #: a registered model name, or ``"default"`` for the paper's
    #: per-modality choice (CNN for images, MLP for tabular)
    name: str = "default"
    kwargs: dict = field(default_factory=dict)


@dataclass(frozen=True)
class AlgorithmSpec:
    """Which federated optimization algorithm, with its knobs."""

    name: str
    #: algorithm-specific settings (``mu`` for fedprox, ``option`` for
    #: scaffold, ``server_momentum``/``variant`` for fedopt)
    kwargs: dict = field(default_factory=dict)


@dataclass(frozen=True)
class TrainSpec:
    """The training protocol of a run (paper Section 5 knobs)."""

    num_rounds: int
    local_epochs: int
    batch_size: int
    lr: float
    optimizer: str = "sgd"
    sample_fraction: float = 1.0
    sampler: str = "uniform"
    bn_policy: str = "average"
    eval_every: int = 1


@dataclass(frozen=True)
class CommSpec:
    """Update-compression settings (see :mod:`repro.comm`)."""

    codec: str = "identity"
    bits: int = 8
    k: float = 0.1


@dataclass(frozen=True)
class FaultSpec:
    """Fault-injection settings (see :mod:`repro.federated.faults`)."""

    dropout_prob: float = 0.0
    straggler_prob: float = 0.0
    straggler_factor: float = 1.0
    crash_prob: float = 0.0
    deadline: float | None = None


@dataclass(frozen=True)
class PopulationSpec:
    """Population scale and aggregation mode (the async-engine axes).

    With ``size=None`` and ``aggregation="sync"`` (the defaults) the run
    is the classic partition-based synchronous federation and this
    section contributes nothing.  Setting ``size`` switches the run to a
    lazy :class:`~repro.federated.population.VirtualPopulation` of that
    many parties (the ``partition`` section's strategy is then ignored —
    per-party data comes from the closed-form ``(seed, party)`` draws);
    ``aggregation="async"`` runs the virtual-clock buffered engine
    (:class:`~repro.federated.async_engine.AsyncFederation`) — with or
    without a virtual population.
    """

    #: total parties; None = materialize clients from the partition
    size: int | None = None
    #: cohort size (clients concurrently in flight) for the async
    #: engine; None derives it from ``train.sample_fraction``
    sample_per_round: int | None = None
    #: local dataset size per virtual party
    samples_per_client: int = 64
    #: Dirichlet label-skew beta for virtual parties (None = iid)
    skew_beta: float | None = None
    #: "sync" (barrier rounds) or "async" (FedBuff-style buffering)
    aggregation: str = "sync"
    #: async buffer M; None = the cohort (an exact barrier)
    buffer_size: int | None = None
    #: staleness discount exponent for mixed-version async flushes
    staleness_exponent: float = 0.0


@dataclass(frozen=True)
class ExecSpec:
    """How a run is executed — excluded from :meth:`RunSpec.run_id`.

    Executors are bitwise-identical by contract and checkpointing does
    not change results, so none of these fields affect the History a
    spec produces.
    """

    executor: str = "serial"
    #: clients per stack for ``executor="stacked"``
    stack_size: int = 16
    #: max drift the stacked executor's serial-vs-stacked check accepts
    #: (0.0 = bitwise, the contract on hosts with slice-exact kernels)
    stacked_tolerance: float = 0.0
    checkpoint_every: int = 0
    checkpoint_path: str | None = None
    #: capture & replay training/inference steps (bitwise-identical to
    #: eager by contract, hence exec-section; see repro.grad.capture)
    compile: bool = False


#: RunSpec section name -> section dataclass (the order of to_dict output)
SECTIONS = {
    "data": DataSpec,
    "partition": PartitionSpec,
    "model": ModelSpec,
    "algorithm": AlgorithmSpec,
    "train": TrainSpec,
    "comm": CommSpec,
    "faults": FaultSpec,
    "population": PopulationSpec,
    "exec": ExecSpec,
}

#: flat override names that are not simply the field's own name.  ``seed``
#: lives on the RunSpec itself; ``mu`` (an algorithm-kwargs convenience)
#: is handled by ``with_overrides`` directly.
_ALIASES: dict[str, tuple[str | None, str]] = {
    "dataset": ("data", "name"),
    "dataset_kwargs": ("data", "kwargs"),
    "partition": ("partition", "strategy"),
    "model": ("model", "name"),
    "model_kwargs": ("model", "kwargs"),
    "algorithm": ("algorithm", "name"),
    "algorithm_kwargs": ("algorithm", "kwargs"),
    "codec_bits": ("comm", "bits"),
    "codec_k": ("comm", "k"),
    "population": ("population", "size"),
    "population_skew_beta": ("population", "skew_beta"),
    "seed": (None, "seed"),
}

#: flat override name -> (section, field) accepted by ``with_overrides``:
#: every section field under its own name unless :data:`_ALIASES` renames
#: it.  A section field is the one declaration of a knob; this table,
#: ``RunSpec.build``, ``FederatedConfig.from_spec`` and the CLI follow it.
OVERRIDE_PATHS: dict[str, tuple[str | None, str]] = {
    **{
        f.name: (section, f.name)
        for section, section_cls in SECTIONS.items()
        for f in dataclasses.fields(section_cls)
        if (section, f.name) not in _ALIASES.values()
    },
    **_ALIASES,
}
# Two sections declaring the same un-aliased field name would shadow one
# another above; every field plus ``seed`` must stay individually reachable.
assert len(OVERRIDE_PATHS) == 1 + sum(
    len(dataclasses.fields(section_cls)) for section_cls in SECTIONS.values()
), "ambiguous flat override name: add an _ALIASES entry"
_FIELD_PATHS = frozenset(OVERRIDE_PATHS.values())


def overridable_names() -> tuple[str, ...]:
    """Every flat name ``with_overrides`` accepts (plus dotted paths)."""
    return tuple(sorted([*OVERRIDE_PATHS, "mu"]))


def _section_to_dict(section) -> dict:
    out = {}
    for f in dataclasses.fields(section):
        value = getattr(section, f.name)
        out[f.name] = dict(value) if isinstance(value, dict) else value
    return out


def _section_from_dict(cls, data: dict):
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = set(data) - names
    if unknown:
        raise ValueError(
            f"unknown {cls.__name__} fields {sorted(unknown)}; "
            f"known: {sorted(names)}"
        )
    return cls(**data)


@dataclass(frozen=True)
class RunSpec:
    """One fully-specified experiment (see module docstring)."""

    data: DataSpec
    partition: PartitionSpec
    algorithm: AlgorithmSpec
    train: TrainSpec
    model: ModelSpec = field(default_factory=ModelSpec)
    comm: CommSpec = field(default_factory=CommSpec)
    faults: FaultSpec = field(default_factory=FaultSpec)
    population: PopulationSpec = field(default_factory=PopulationSpec)
    exec: ExecSpec = field(default_factory=ExecSpec)
    seed: int = 0

    # -- construction ---------------------------------------------------

    @classmethod
    def build(
        cls,
        dataset: str,
        partition,
        algorithm: str,
        *,
        preset=None,
        num_parties: int | None = None,
        **overrides,
    ) -> "RunSpec":
        """Resolve a cell key plus flat knob overrides into a concrete spec.

        This is the single place preset defaults, the per-dataset paper
        learning rate, and the partitioner's default party count are
        applied — the spec that comes out holds only concrete values, so
        its :meth:`run_id` does not depend on how it was phrased.  Every
        other knob is a literal :meth:`with_overrides` name (``None``
        means "keep the default"); an unknown name raises ``KeyError``
        listing the valid ones.

        ``partition`` may be a strategy string or a
        :class:`~repro.partition.base.Partitioner` instance (recorded
        via its canonical ``spec_string()``).
        """
        from repro.experiments.runner import paper_lr_for
        from repro.experiments.scale import BENCH
        from repro.partition import parse_strategy
        from repro.partition.base import Partitioner

        if preset is None:
            preset = BENCH
        if isinstance(partition, Partitioner):
            partitioner, strategy = partition, partition.spec_string()
        else:
            strategy = str(partition)
            partitioner = parse_strategy(strategy)
        if num_parties is None:
            num_parties = partitioner.default_num_parties

        dataset_kwargs = dict(overrides.pop("dataset_kwargs", None) or {})
        n_train = dataset_kwargs.pop("n_train", preset.n_train)
        n_test = dataset_kwargs.pop("n_test", preset.n_test)
        if dataset.lower().replace("-", "") == "fcube":
            # FCUBE is defined at its paper size; keep it unless asked.
            n_train = n_test = None

        base = cls(
            data=DataSpec(
                name=dataset,
                n_train=n_train,
                n_test=n_test,
                kwargs=_freeze_kwargs(dataset_kwargs),
            ),
            partition=PartitionSpec(strategy=strategy, num_parties=num_parties),
            algorithm=AlgorithmSpec(name=algorithm),
            train=TrainSpec(
                num_rounds=preset.num_rounds,
                local_epochs=preset.local_epochs,
                batch_size=preset.batch_size,
                lr=paper_lr_for(dataset),
            ),
        )
        return base.with_overrides(
            **{name: value for name, value in overrides.items() if value is not None}
        )

    # -- serialization --------------------------------------------------

    def to_dict(self) -> dict:
        """Plain nested dict, the inverse of :meth:`from_dict`."""
        out: dict[str, Any] = {
            name: _section_to_dict(getattr(self, name)) for name in SECTIONS
        }
        out["seed"] = self.seed
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "RunSpec":
        """Rebuild a spec from :meth:`to_dict` output (e.g. a JSON file).

        Sections and fields may be omitted — defaults fill them — but
        unknown sections or fields are an error, so a typo in a spec
        file cannot silently no-op.
        """
        data = dict(data)
        seed = int(data.pop("seed", 0))
        unknown = set(data) - set(SECTIONS)
        if unknown:
            raise ValueError(
                f"unknown RunSpec sections {sorted(unknown)}; "
                f"known: {sorted([*SECTIONS, 'seed'])}"
            )
        kwargs = {
            name: _section_from_dict(section_cls, data.get(name, {}))
            for name, section_cls in SECTIONS.items()
        }
        return cls(seed=seed, **kwargs)

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    # -- content addressing ---------------------------------------------

    def canonical_dict(self) -> dict:
        """The hash input: :meth:`to_dict` minus the ``exec`` section."""
        out = self.to_dict()
        del out["exec"]
        return out

    def run_id(self) -> str:
        """Deterministic 16-hex-digit content hash of the spec.

        Stable across processes and ``PYTHONHASHSEED``; identical specs
        (including specs differing only in ``exec``) share it, and any
        change to a scientific field changes it.
        """
        payload = json.dumps(
            self.canonical_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    # -- derivation ------------------------------------------------------

    def with_overrides(self, **overrides) -> "RunSpec":
        """A copy with the given fields replaced (literal, no re-resolution).

        Accepts the flat names in :data:`OVERRIDE_PATHS` (``lr``,
        ``codec``, ``dropout_prob``, ...), dotted section paths
        (``"train.lr"``), and ``mu`` as a shorthand for the fedprox
        proximal weight in ``algorithm.kwargs``.  Unknown names raise
        ``KeyError`` listing every valid option — a typo'd sweep axis
        fails loudly instead of silently sweeping nothing.
        """
        per_section: dict[str, dict] = {}
        flat: dict[str, Any] = {}
        for name, value in overrides.items():
            if name == "mu":
                continue  # merged into algorithm.kwargs below
            path = OVERRIDE_PATHS.get(name) or tuple(name.split(".", 1))
            if path not in _FIELD_PATHS:
                raise KeyError(
                    f"cannot override {name!r}; overridable: "
                    f"{list(overridable_names())} or section.field paths"
                )
            section, attr = path
            if section is None:
                flat[attr] = value
            else:
                if attr == "kwargs":
                    value = _freeze_kwargs(value)
                per_section.setdefault(section, {})[attr] = value
        if "mu" in overrides:
            pending = per_section.setdefault("algorithm", {})
            pending["kwargs"] = {
                **pending.get("kwargs", self.algorithm.kwargs),
                "mu": overrides["mu"],
            }
        replacements: dict[str, Any] = dict(flat)
        for section, attrs in per_section.items():
            replacements[section] = dataclasses.replace(
                getattr(self, section), **attrs
            )
        return dataclasses.replace(self, **replacements)

    def trial_specs(
        self, num_trials: int, base_seed: int = 0, seed_stride: int = 1000
    ) -> list["RunSpec"]:
        """The paper's repeated-trial protocol as concrete specs.

        Pure enumeration — nothing runs.  Trial ``t`` is this spec with
        ``seed = base_seed + seed_stride * t``; hand the list to
        :func:`repro.experiments.scheduler.run_matrix` to run it, as
        :func:`repro.experiments.runner.run_trials` does.
        """
        if num_trials <= 0:
            raise ValueError(f"num_trials must be positive, got {num_trials}")
        return [
            self.with_overrides(seed=base_seed + seed_stride * trial)
            for trial in range(num_trials)
        ]

    # -- validation ------------------------------------------------------

    def validate(self) -> "RunSpec":
        """Check names against the component registries, then every range.

        Returns ``self`` so call sites can chain
        ``RunSpec.from_dict(...).validate()``.  Only the checks a spec
        alone can make live here (registry names, the partition string,
        the population's shape); numeric ranges are declared once, in
        :class:`repro.federated.config.FederatedConfig`, and surface here
        by building the config the run would use.
        """
        from repro.data.registry import DATASETS
        from repro.federated.algorithms import ALGORITHMS
        from repro.federated.config import FederatedConfig
        from repro.models.registry import MODELS
        from repro.partition import parse_strategy

        problems = []
        if self.data.name not in DATASETS:
            problems.append(DATASETS.unknown(self.data.name))
        if self.model.name != "default" and self.model.name not in MODELS:
            problems.append(MODELS.unknown(self.model.name))
        if self.algorithm.name not in ALGORITHMS:
            problems.append(ALGORITHMS.unknown(self.algorithm.name))
        try:
            parse_strategy(self.partition.strategy)
        except ValueError as error:
            problems.append(str(error))
        if self.partition.num_parties <= 0:
            problems.append(
                f"num_parties must be positive, got {self.partition.num_parties}"
            )
        pop = self.population
        if pop.size is not None and pop.size <= 0:
            problems.append(
                f"population.size must be positive, got {pop.size}"
            )
        if (
            pop.size is not None
            and pop.sample_per_round is not None
            and pop.sample_per_round > pop.size
        ):
            problems.append(
                f"population.sample_per_round ({pop.sample_per_round}) "
                f"exceeds population.size ({pop.size}): cannot sample "
                "more clients per round than the population holds"
            )
        if pop.size is not None and self.train.sampler == "stratified":
            problems.append(
                "sampler='stratified' needs every party's label counts, which a "
                "virtual population (population.size) never materializes"
            )
        if pop.samples_per_client <= 0:
            problems.append(
                "population.samples_per_client must be positive, "
                f"got {pop.samples_per_client}"
            )
        if pop.skew_beta is not None and pop.skew_beta <= 0:
            problems.append(
                f"population.skew_beta must be positive, got {pop.skew_beta}"
            )
        try:
            FederatedConfig.from_spec(self)
        except ValueError as error:
            problems.append(str(error))
        if problems:
            raise ValueError("invalid RunSpec:\n  " + "\n  ".join(problems))
        return self

    def describe(self) -> str:
        """One-line human summary: the cell key plus its run id."""
        return (
            f"{self.data.name} / {self.partition.strategy} / "
            f"{self.algorithm.name} / seed {self.seed} "
            f"[{self.run_id()}]"
        )


__all__ = [
    "DataSpec",
    "PartitionSpec",
    "ModelSpec",
    "AlgorithmSpec",
    "TrainSpec",
    "CommSpec",
    "FaultSpec",
    "PopulationSpec",
    "ExecSpec",
    "RunSpec",
    "OVERRIDE_PATHS",
    "overridable_names",
]
