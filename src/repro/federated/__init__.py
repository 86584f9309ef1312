"""Federated learning core: the four algorithms the paper evaluates.

- :class:`FedAvg` — weighted model averaging (McMahan et al.).
- :class:`FedProx` — FedAvg + proximal term in the local objective.
- :class:`Scaffold` — control variates correcting client drift.
- :class:`FedNova` — normalized averaging of heterogeneous local updates.
- :class:`FedOpt` — extension: server-side optimizer (momentum/Adam), cited
  by the paper as related work.

One round is :class:`Federation`'s; :class:`FederatedServer` (the paper's
synchronous server) and :class:`AsyncFederation` (virtual-clock, buffered)
are arrival policies over it.  Per-party state (local
datasets, SCAFFOLD control variates, retained BN statistics) lives in
:class:`Client`.
"""

from repro.federated.config import FederatedConfig
from repro.federated.client import Client, heterogeneous_epochs, make_clients
from repro.federated.history import History, RoundRecord
from repro.federated.server import FederatedServer, Federation
from repro.federated.algorithms import (
    ALGORITHM_NAMES,
    FedAlgorithm,
    FedAvg,
    FedNova,
    FedOpt,
    FedProx,
    Scaffold,
    make_algorithm,
)
from repro.federated.evaluation import (
    EvalResult,
    evaluate,
    evaluate_per_party,
)
from repro.federated.executor import (
    ClientExecutor,
    RoundExecution,
    SerialExecutor,
    StackedDriftError,
    StackedExecutor,
    make_executor,
)
from repro.federated.faults import FaultModel, InjectedCrash, PartyFault
from repro.federated.population import (
    ClientPopulation,
    ClientView,
    MaterializedPopulation,
    VirtualPopulation,
)
from repro.federated.async_engine import AsyncFederation
from repro.federated.privacy import approximate_epsilon
from repro.federated.systems import SystemModel
from repro.federated.sampling import StratifiedSampler, sample_clients

__all__ = [
    "FederatedConfig",
    "Client",
    "make_clients",
    "heterogeneous_epochs",
    "Federation",
    "FederatedServer",
    "History",
    "RoundRecord",
    "FedAlgorithm",
    "FedAvg",
    "FedProx",
    "Scaffold",
    "FedNova",
    "FedOpt",
    "make_algorithm",
    "ALGORITHM_NAMES",
    "EvalResult",
    "evaluate",
    "evaluate_per_party",
    "ClientExecutor",
    "SerialExecutor",
    "StackedExecutor",
    "StackedDriftError",
    "RoundExecution",
    "make_executor",
    "FaultModel",
    "PartyFault",
    "InjectedCrash",
    "approximate_epsilon",
    "SystemModel",
    "StratifiedSampler",
    "sample_clients",
    "ClientPopulation",
    "ClientView",
    "MaterializedPopulation",
    "VirtualPopulation",
    "AsyncFederation",
]
