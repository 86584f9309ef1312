"""One-call experiment runner implementing the paper's protocol.

:func:`run_spec` executes one fully-resolved :class:`~repro.spec.RunSpec`
— a single (dataset, partition, algorithm, ...) cell of the experimental
matrix.  :func:`run_federated_experiment` is the keyword door to it
(knobs in, spec out, run); ``run_trials`` repeats a cell over seeds and
reports mean +- std, the paper's three-trial protocol.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data import build_cache, load_dataset
from repro.data.dataset import DatasetInfo
from repro.federated import (
    AsyncFederation,
    FederatedConfig,
    FederatedServer,
    History,
    MaterializedPopulation,
    VirtualPopulation,
    make_algorithm,
    make_clients,
)
from repro.models import build_model
from repro.partition import Partition, parse_strategy
from repro.partition.base import Partitioner
from repro.spec import RunSpec

#: the paper tunes lr from {0.1, 0.01, 0.001}; rcv1 uses 0.1, the rest 0.01
PAPER_LEARNING_RATES = {"rcv1": 0.1}
DEFAULT_LR = 0.01


@dataclass
class ExperimentOutcome:
    """Everything produced by one experiment cell."""

    dataset: str
    partition: str
    algorithm: str
    model: str
    seed: int
    history: History
    #: None on virtual-population runs (parties are derived lazily from
    #: ``(seed, party)`` — there is no materialized partition)
    partition_result: Partition | None
    info: DatasetInfo
    #: the resolved spec this outcome was produced from (content address
    #: via ``spec.run_id()``; the key :class:`ResultStore` saves it under)
    spec: RunSpec

    @property
    def final_accuracy(self) -> float:
        return self.history.final_accuracy

    @property
    def best_accuracy(self) -> float:
        return self.history.best_accuracy


@dataclass
class TrialSummary:
    """Mean +- std over repeated trials (the paper's reporting format)."""

    dataset: str
    partition: str
    algorithm: str
    accuracies: list[float] = field(default_factory=list)

    @property
    def mean(self) -> float:
        return float(np.mean(self.accuracies))

    @property
    def std(self) -> float:
        return float(np.std(self.accuracies))

    def format_cell(self) -> str:
        """Render like the paper's Table 3 cells: ``68.2% +- 0.7%``."""
        return f"{100 * self.mean:.1f}% +- {100 * self.std:.1f}%"


def paper_lr_for(dataset: str) -> float:
    """The paper's tuned learning rate for a dataset."""
    return PAPER_LEARNING_RATES.get(dataset.lower().replace("-", ""), DEFAULT_LR)


def run_spec(spec: RunSpec, resume: str | None = None) -> ExperimentOutcome:
    """Run the experiment a :class:`~repro.spec.RunSpec` describes.

    Parameters
    ----------
    spec:
        A fully-resolved spec (see :meth:`RunSpec.build` /
        :meth:`RunSpec.from_dict`).  Validated against the component
        registries before any compute happens.
    resume:
        Path of a checkpoint to load before training; the run continues
        from the checkpointed round and only executes the remaining
        ones.  Execution state, not science — deliberately not a spec
        field.

    ``spec.seed`` controls dataset generation, partition draw, model
    init, sampling and local shuffling — two runs of equal specs are
    identical, and so are two specs differing only in ``spec.exec``.
    """
    spec.validate()
    # Population/async specs run on the event engine.  Its seed
    # derivations mirror the sync server's exactly (dataset ``seed``,
    # partition ``seed + 17``, clients ``seed + 29``, config ``seed + 41``,
    # model ``seed + 53``), so an async-barrier run over materialized
    # clients reproduces the sync server bit for bit.
    on_event_engine = spec.population.on_event_engine
    if on_event_engine and resume is not None:
        raise ValueError(
            "resume is not supported for async/population runs: AsyncFederation "
            "writes no checkpoints — the event loop replays deterministically "
            "from the spec seed instead"
        )

    dataset_kwargs = dict(spec.data.kwargs)
    if spec.data.n_train is not None:
        dataset_kwargs["n_train"] = spec.data.n_train
    if spec.data.n_test is not None:
        dataset_kwargs["n_test"] = spec.data.n_test
    train, test, info = load_dataset(
        spec.data.name, seed=spec.seed, cache=True, **dataset_kwargs
    )

    partition_result: Partition | None = None
    if spec.population.size is not None:
        population = VirtualPopulation(
            train,
            spec.population.size,
            samples_per_client=spec.population.samples_per_client,
            seed=spec.seed + 29,
            skew_beta=spec.population.skew_beta,
        )
        partition_label = (
            "virtual-iid"
            if spec.population.skew_beta is None
            else f"virtual-dir({spec.population.skew_beta})"
        )
    else:
        partitioner = parse_strategy(spec.partition.strategy)
        # The partition draw is a pure function of (dataset, strategy,
        # seed), so it shares the build cache; a cache hit skips the rng
        # draw but is bitwise-identical to it by determinism.
        partition_result = build_cache.cached_partition(
            build_cache.partition_key(
                build_cache.dataset_key(spec.data.name, spec.seed, dataset_kwargs),
                spec.partition.strategy,
                spec.partition.num_parties,
                spec.seed + 17,
            ),
            lambda: partitioner.partition(
                train, spec.partition.num_parties, np.random.default_rng(spec.seed + 17)
            ),
        )
        clients = make_clients(
            partition_result, train, seed=spec.seed + 29, drop_empty=True
        )
        population = MaterializedPopulation(clients) if on_event_engine else None
        partition_label = partition_result.strategy

    config = FederatedConfig.from_spec(spec)
    net = build_model(spec.model.name, info, seed=spec.seed + 53, **spec.model.kwargs)
    algo = make_algorithm(spec.algorithm.name, **spec.algorithm.kwargs)
    if on_event_engine:
        engine = AsyncFederation(net, algo, population, config, test_dataset=test)
    else:
        engine = FederatedServer(net, algo, clients, config, test_dataset=test)
    with engine:
        if resume is not None:
            engine.resume(resume)
        history = engine.fit(max(0, config.num_rounds - len(engine.history)))

    return ExperimentOutcome(
        dataset=info.name,
        partition=partition_label,
        algorithm=spec.algorithm.name,
        model=spec.model.name,
        seed=spec.seed,
        history=history,
        partition_result=partition_result,
        info=info,
        spec=spec,
    )


def run_federated_experiment(
    dataset: str,
    partition: str | Partitioner,
    algorithm: str,
    **knobs,
) -> ExperimentOutcome:
    """Run one federated experiment cell (keyword door to :func:`run_spec`).

    ``dataset`` / ``partition`` / ``algorithm`` name the cell; ``knobs``
    are :meth:`RunSpec.build <repro.spec.RunSpec.build>` keywords —
    ``preset``, ``num_parties`` and any flat override name
    (:func:`repro.spec.overridable_names`); a misspelt one raises
    ``KeyError`` listing them.  ``run_federated_experiment(**kw)`` and
    ``run_spec(RunSpec.build(**kw))`` produce bitwise-identical histories.
    """
    spec = RunSpec.build(dataset, partition, algorithm, **knobs)
    return run_spec(spec)


def run_trials(
    dataset: str | None = None,
    partition: str | Partitioner | None = None,
    algorithm: str | None = None,
    num_trials: int = 3,
    base_seed: int = 0,
    store=None,
    spec: RunSpec | None = None,
    jobs: int = 1,
    **kwargs,
) -> TrialSummary:
    """The paper's protocol: repeat a cell over seeds, report mean +- std.

    Builds the base :class:`~repro.spec.RunSpec` once (or takes a
    prebuilt one via ``spec``), enumerates the trials with
    :meth:`~repro.spec.RunSpec.trial_specs` and runs them through
    :func:`~repro.experiments.scheduler.run_matrix`.  With a ``store``
    (:class:`~repro.experiments.store.ResultStore`), trials already
    stored are read back instead of re-run and fresh ones are saved —
    re-invoking a finished protocol runs zero new cells.  ``jobs`` is the
    worker count.
    """
    # Imported here: the scheduler imports run_spec from this module.
    from repro.experiments.scheduler import run_matrix

    if spec is not None:
        if dataset is not None or partition is not None or algorithm is not None:
            raise TypeError("pass either spec or dataset/partition/algorithm")
        if kwargs:
            raise TypeError(
                f"spec given; unexpected keyword arguments {sorted(kwargs)} "
                "(derive variants with spec.with_overrides instead)"
            )
        base = spec
        dataset, partition, algorithm = (
            spec.data.name, spec.partition.strategy, spec.algorithm.name
        )
    elif dataset is None or partition is None or algorithm is None:
        raise TypeError("run_trials needs dataset, partition and algorithm (or spec)")
    else:
        base = RunSpec.build(dataset, partition, algorithm, **kwargs)
    records = run_matrix(
        base.trial_specs(num_trials, base_seed=base_seed), store=store, jobs=jobs
    )
    return TrialSummary(
        dataset=dataset,
        partition=str(partition),
        algorithm=algorithm,
        accuracies=[float(record["final_accuracy"]) for record in records],
    )
