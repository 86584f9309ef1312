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

One declaration per knob
------------------------
A knob's name, type, default and range check are written once, on its
section dataclass: the field, and a line in that section's
``problems()``.  Names are checked against the unified component
registries (:mod:`repro.registry`), so a spec naming an unknown dataset,
model, algorithm or codec fails fast with the live list of alternatives.
:class:`repro.federated.config.FederatedConfig` is a flat read-only view
of the engine-facing sections and declares nothing of its own.
"""

from __future__ import annotations

import dataclasses
import hashlib
import inspect
import json
import math
import numbers
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


def _failed(*checks: tuple[object, str]) -> list[str]:
    """The messages of the ``(in_range, message)`` checks that fail.

    Each check states its valid range as a predicate (``0 < lr < inf``),
    so a NaN, which compares false to everything, fails it; a float knob
    with no natural upper end still bounds itself by ``math.inf``.
    """
    return [message for in_range, message in checks if not in_range]


@dataclass(frozen=True)
class DataSpec:
    """Which dataset, at what size."""

    name: str
    n_train: int | None = None
    n_test: int | None = None
    #: generator extras (``num_writers`` for femnist, ``num_features``
    #: for rcv1, ...) — must be JSON-serializable
    kwargs: dict = field(default_factory=dict)

    def problems(self) -> list[str]:
        from repro.data.registry import DATASETS

        return _failed((self.name in DATASETS, DATASETS.unknown(self.name)))


@dataclass(frozen=True)
class PartitionSpec:
    """How the dataset is split across parties."""

    #: the paper's strategy notation (``"iid"``, ``"#C=2"``, ``"dir(0.5)"``)
    strategy: str
    num_parties: int = 10

    def problems(self) -> list[str]:
        from repro.partition import parse_strategy

        try:
            parse_strategy(self.strategy)
            problems = []
        except ValueError as error:
            problems = [str(error)]
        return problems + _failed(
            (
                self.num_parties > 0,
                f"num_parties must be positive, got {self.num_parties}",
            )
        )


@dataclass(frozen=True)
class ModelSpec:
    """Which model the parties train."""

    #: a registered model name, or ``"default"`` for the paper's
    #: per-modality choice (CNN for images, MLP for tabular)
    name: str = "default"
    kwargs: dict = field(default_factory=dict)

    def problems(self) -> list[str]:
        from repro.models.registry import MODELS

        return _failed(
            (self.name == "default" or self.name in MODELS, MODELS.unknown(self.name))
        )


def _numeric_params(algorithm: str) -> dict[str, str]:
    """``{parameter: "int" | "float"}`` of the algorithm's constructor."""
    from repro.federated.algorithms import ALGORITHMS

    if algorithm not in ALGORITHMS:
        return {}
    params = inspect.signature(ALGORITHMS.get(algorithm)).parameters.values()
    # The algorithm modules postpone annotations, so each is a string.
    kinds = {param.name: str(param.annotation) for param in params}
    return {
        name: kind.replace(" | None", "")
        for name, kind in kinds.items()
        if kind.replace(" | None", "") in ("int", "float")
    }


@dataclass(frozen=True)
class AlgorithmSpec:
    """Which federated optimization algorithm, with its knobs."""

    name: str
    #: algorithm-specific settings (``mu`` for fedprox, ``option`` for
    #: scaffold, ``server_momentum``/``variant`` for fedopt)
    kwargs: dict = field(default_factory=dict)

    def __post_init__(self):
        # Equal settings must share one run id: a number is stored as the
        # type its constructor parameter declares (``mu=1`` as 1.0,
        # ``option=2.0`` as 2).  A float with a fraction stays a float
        # for an int parameter, so validation still rejects it.
        if not (isinstance(self.name, str) and isinstance(self.kwargs, dict)):
            return  # validate() reports the types
        kinds = _numeric_params(self.name) if self.kwargs else {}
        kwargs = dict(self.kwargs)
        for key, value in kwargs.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            if kinds.get(key) == "float":
                kwargs[key] = float(value)
            elif kinds.get(key) == "int" and float(value).is_integer():
                kwargs[key] = int(value)
        object.__setattr__(self, "kwargs", kwargs)

    def problems(self) -> list[str]:
        """An unknown name, or what building the algorithm from its kwargs raises.

        Construction is cheap (no model, no data) and is where each
        algorithm checks its own knobs, so a misspelt or out-of-range
        kwarg fails here instead of after a scheduler claims the cell.
        """
        from repro.federated.algorithms import ALGORITHMS

        if self.name not in ALGORITHMS:
            return [ALGORITHMS.unknown(self.name)]
        try:
            ALGORITHMS.build(self.name, **self.kwargs)
        except (TypeError, ValueError) as error:
            return [f"algorithm {self.name!r} kwargs {self.kwargs}: {error}"]
        return []


@dataclass(frozen=True)
class TrainSpec:
    """The training protocol of a run (paper Section 5 knobs and defaults)."""

    #: communication rounds T (50 for Table 3, 100 for Figure 7)
    num_rounds: int = 50
    #: local epochs E per round
    local_epochs: int = 10
    batch_size: int = 64
    #: local learning rate (0.01; ``RunSpec.build`` gives rcv1 0.1)
    lr: float = 0.01
    #: local optimizer: "sgd" (the paper's), "adam" or "amsgrad";
    #: SCAFFOLD's correction is defined on "sgd" only
    optimizer: str = "sgd"
    #: share of parties sampled per round (1.0 = full participation)
    sample_fraction: float = 1.0
    #: "uniform" (Algorithm 1 line 6) or "stratified" (label-mix-matched,
    #: the paper's Section 6.1 proposal)
    sampler: str = "uniform"
    #: "average" batch-norm entries like any weight (the paper's default)
    #: or keep them "local" per party (FedBN-style, Section 6.2)
    bn_policy: str = "average"
    #: evaluate the global model every k rounds
    eval_every: int = 1
    #: DP-SGD Gaussian noise multiplier on each clipped batch gradient
    #: (0 = DP off; see repro.federated.privacy)
    dp_noise_multiplier: float = 0.0

    def problems(self) -> list[str]:
        return _failed(
            (self.num_rounds > 0, f"num_rounds must be positive, got {self.num_rounds}"),
            (
                self.local_epochs > 0,
                f"local_epochs must be positive, got {self.local_epochs}",
            ),
            (self.batch_size > 0, f"batch_size must be positive, got {self.batch_size}"),
            (0 < self.lr < math.inf, f"lr must be positive and finite, got {self.lr}"),
            (
                self.optimizer in ("sgd", "adam", "amsgrad"),
                f"optimizer must be 'sgd', 'adam' or 'amsgrad', got {self.optimizer!r}",
            ),
            (
                0.0 < self.sample_fraction <= 1.0,
                f"sample_fraction must be in (0, 1], got {self.sample_fraction}",
            ),
            (
                self.sampler in ("uniform", "stratified"),
                f"sampler must be 'uniform' or 'stratified', got {self.sampler!r}",
            ),
            (
                self.bn_policy in ("average", "local"),
                f"bn_policy must be 'average' or 'local', got {self.bn_policy!r}",
            ),
            (self.eval_every > 0, f"eval_every must be positive, got {self.eval_every}"),
            (
                0 <= self.dp_noise_multiplier < math.inf,
                "dp_noise_multiplier must be non-negative and finite, "
                f"got {self.dp_noise_multiplier}",
            ),
        )


@dataclass(frozen=True)
class CommSpec:
    """Update-compression settings (see :mod:`repro.comm`)."""

    #: codec on both transport directions ("identity" = the paper's
    #: float32 wire; see repro.comm.CODECS)
    codec: str = "identity"
    #: bit width of the "qsgd" codec
    bits: int = 8
    #: kept fraction of the "topk" / "randk" codecs
    k: float = 0.1

    def problems(self) -> list[str]:
        from repro.comm import CODECS

        return _failed(
            (self.codec in CODECS, CODECS.unknown(self.codec)),
            (1 <= self.bits <= 16, f"codec_bits must be in [1, 16], got {self.bits}"),
            (0.0 < self.k <= 1.0, f"codec_k must be a fraction in (0, 1], got {self.k}"),
        )


@dataclass(frozen=True)
class FaultSpec:
    """Fault-injection settings (see :mod:`repro.federated.faults`)."""

    dropout_prob: float = 0.0
    #: probability a responding party runs slowed, and by what factor
    straggler_prob: float = 0.0
    straggler_factor: float = 1.0
    crash_prob: float = 0.0
    #: round deadline relative to a fault-free party's time (1.0);
    #: slower parties time out.  None waits for every responder
    deadline: float | None = None

    def problems(self) -> list[str]:
        probabilities = {
            "dropout_prob": self.dropout_prob,
            "straggler_prob": self.straggler_prob,
            "crash_prob": self.crash_prob,
        }
        return _failed(
            *(
                (0.0 <= value <= 1.0, f"{name} must be in [0, 1], got {value}")
                for name, value in probabilities.items()
            ),
            (
                self.dropout_prob + self.crash_prob <= 1.0,
                "dropout_prob + crash_prob must not exceed 1, got "
                f"{self.dropout_prob} + {self.crash_prob}",
            ),
            (
                1.0 <= self.straggler_factor < math.inf,
                f"straggler_factor must be finite and >= 1, got {self.straggler_factor}",
            ),
            (
                self.deadline is None or 1.0 <= self.deadline < math.inf,
                "deadline is relative to a fault-free party's round time "
                f"(1.0) and must be finite and >= 1, got {self.deadline}",
            ),
        )


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

    @property
    def on_event_engine(self) -> bool:
        """Whether the run needs the event engine rather than the server."""
        return self.size is not None or self.aggregation == "async"

    def problems(self) -> list[str]:
        size, per_round, buffer = self.size, self.sample_per_round, self.buffer_size
        return _failed(
            (size is None or size > 0, f"population.size must be positive, got {size}"),
            (
                per_round is None or per_round >= 1,
                f"sample_per_round must be >= 1, got {per_round}",
            ),
            (
                size is None or per_round is None or per_round <= size,
                f"population.sample_per_round ({per_round}) exceeds "
                f"population.size ({size}): cannot sample more clients per "
                "round than the population holds",
            ),
            (
                self.samples_per_client > 0,
                "population.samples_per_client must be positive, "
                f"got {self.samples_per_client}",
            ),
            (
                self.skew_beta is None or 0 < self.skew_beta < math.inf,
                "population.skew_beta must be positive and finite, "
                f"got {self.skew_beta}",
            ),
            (
                self.aggregation in ("sync", "async"),
                f"aggregation must be 'sync' or 'async', got {self.aggregation!r}",
            ),
            (buffer is None or buffer >= 1, f"buffer_size must be >= 1, got {buffer}"),
            (
                buffer is None or per_round is None or buffer <= per_round,
                f"buffer_size ({buffer}) cannot exceed the cohort "
                f"(sample_per_round={per_round}): the buffer can never fill "
                "with fewer clients in flight than it holds",
            ),
            (
                0 <= self.staleness_exponent < math.inf,
                "staleness_exponent must be non-negative and finite, "
                f"got {self.staleness_exponent}",
            ),
        )


@dataclass(frozen=True)
class ExecSpec:
    """How a run is executed — excluded from :meth:`RunSpec.run_id`.

    Executors are bitwise-identical by contract and checkpointing does
    not change results, so none of these fields affect the History a
    spec produces.
    """

    #: client-execution backend, a name in repro.federated.executor.EXECUTORS
    executor: str = "serial"
    #: clients per stack for ``executor="stacked"``
    stack_size: int = 16
    #: save a run checkpoint to ``checkpoint_path`` every k rounds (0 = never)
    checkpoint_every: int = 0
    checkpoint_path: str | None = None
    #: capture & replay training/inference steps (bitwise-identical to
    #: eager by contract, hence exec-section; see repro.grad.capture)
    compile: bool = False

    def problems(self) -> list[str]:
        from repro.federated.executor import EXECUTORS

        return _failed(
            (self.executor in EXECUTORS, EXECUTORS.unknown(self.executor)),
            (self.stack_size >= 2, f"stack_size must be >= 2, got {self.stack_size}"),
            (
                self.checkpoint_every >= 0,
                f"checkpoint_every must be non-negative, got {self.checkpoint_every}",
            ),
            (
                self.checkpoint_every <= 0 or self.checkpoint_path,
                "checkpoint_every > 0 needs a checkpoint_path to write to",
            ),
        )


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
#: ``RunSpec.build``, ``FederatedConfig`` and the CLI follow it.
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
#: (section, field) -> the knob's annotation (``"int"``, ``"float | None"``, ...)
_ANNOTATIONS = {(None, "seed"): "int"} | {
    (section, f.name): f.type
    for section, section_cls in SECTIONS.items()
    for f in dataclasses.fields(section_cls)
}
#: annotation base type -> (the type a value must have, its name in messages)
_TYPES = {
    "int": (numbers.Integral, "an integer"),
    "float": (numbers.Real, "a number"),
    "str": (str, "a string"),
    "bool": (bool, "a bool"),
    "dict": (dict, "a dict"),
}


def _type_problem(name: str, annotation: str, value) -> str | None:
    """Why ``value`` does not fit the knob's ``annotation``, or None."""
    kind, _, optional = annotation.partition(" | ")
    if value is None and optional:
        return None
    required, noun = _TYPES[kind]
    # A bool is an Integral, but as a count or a rate it passes the range
    # check, then fails or silently truncates deep inside a run.
    if isinstance(value, required) and (kind == "bool" or not isinstance(value, bool)):
        return None
    return f"{name} must be {noun}{' or None' if optional else ''}, got {value!r}"


def _with_defaults(section, names):
    """``section`` with the ``names`` fields back at their defaults, or
    None when one of them has no default."""
    defaults = {}
    for f in dataclasses.fields(section):
        if f.name in names:
            if f.default is not dataclasses.MISSING:
                defaults[f.name] = f.default
            elif f.default_factory is not dataclasses.MISSING:
                defaults[f.name] = f.default_factory()
            else:
                return None
    return dataclasses.replace(section, **defaults) if defaults else section


def overridable_names() -> tuple[str, ...]:
    """Every flat name ``with_overrides`` accepts (plus dotted paths)."""
    return tuple(sorted([*OVERRIDE_PATHS, "mu"]))


def _section_to_dict(section) -> dict:
    out = {}
    for f in dataclasses.fields(section):
        value = getattr(section, f.name)
        out[f.name] = dict(value) if isinstance(value, dict) else value
    return out


def _section_from_dict(name: str, cls, data):
    """Section ``name`` of a spec dict as ``cls``; a value that is not an
    object, an unknown field or a missing required one is a ``ValueError``
    naming the section.  Field values are left for ``validate()``."""
    if not isinstance(data, dict):
        raise ValueError(
            f"RunSpec section {name!r} must be an object, got {data!r}"
        )
    fields = dataclasses.fields(cls)
    names = {f.name for f in fields}
    unknown = set(data) - names
    if unknown:
        raise ValueError(
            f"unknown {cls.__name__} fields {sorted(unknown)}; "
            f"known: {sorted(names)}"
        )
    missing = [
        f.name
        for f in fields
        if f.name not in data
        and f.default is dataclasses.MISSING
        and f.default_factory is dataclasses.MISSING
    ]
    if missing:
        raise ValueError(f"RunSpec section {name!r} lacks required fields {missing}")
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
        """Plain nested dict, the inverse of :meth:`from_dict`.

        Every field is written except ``train.dp_noise_multiplier`` at 0
        (DP off): it joined the spec after run ids and store records were
        published, so a DP-free spec keeps its bytes and its run id.
        """
        out: dict[str, Any] = {
            name: _section_to_dict(getattr(self, name)) for name in SECTIONS
        }
        if not self.train.dp_noise_multiplier:
            del out["train"]["dp_noise_multiplier"]
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
        # As written: validate() reports a seed that is not an int.
        seed = data.pop("seed", 0)
        unknown = set(data) - set(SECTIONS)
        if unknown:
            raise ValueError(
                f"unknown RunSpec sections {sorted(unknown)}; "
                f"known: {sorted([*SECTIONS, 'seed'])}"
            )
        kwargs = {
            name: _section_from_dict(name, section_cls, data.get(name, {}))
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
        """Each knob's type, every section's ``problems()``, then the
        cross-section rules.

        Returns ``self`` so call sites can chain
        ``RunSpec.from_dict(...).validate()``.  A knob is checked against
        its field annotation first; one that fails is held at its default
        for the range checks, so a ``None`` or a string cannot reach a
        comparison (a section with an ill-typed required field skips its
        range checks).  Each knob's range and name check lives on its
        section; only rules tying two sections together live here.  Every
        problem is reported at once, under one ``invalid RunSpec:`` header.
        """
        problems = []
        ill_typed: dict[str | None, set] = {}
        for name, (section, attr) in OVERRIDE_PATHS.items():
            value = getattr(self if section is None else getattr(self, section), attr)
            problem = _type_problem(name, _ANNOTATIONS[section, attr], value)
            if problem is not None:
                problems.append(problem)
                ill_typed.setdefault(section, set()).add(attr)
        checked = {
            name: _with_defaults(getattr(self, name), ill_typed.get(name, ()))
            for name in SECTIONS
        }
        problems += [
            p for section in checked.values() if section is not None
            for p in section.problems()
        ]
        population = checked["population"]
        problems += _failed(
            (
                population.size is None or checked["train"].sampler != "stratified",
                "sampler='stratified' needs every party's label counts, which a "
                "virtual population (population.size) never materializes",
            ),
            (
                not population.on_event_engine or checked["exec"].checkpoint_every <= 0,
                "checkpoint_every is not supported for async/population runs: "
                "AsyncFederation writes no checkpoints — the event loop replays "
                "deterministically from the spec seed instead",
            ),
        )
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
