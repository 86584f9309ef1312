"""The federated optimization algorithms the paper studies."""

from repro.federated.algorithms.base import ClientResult, FedAlgorithm
from repro.federated.algorithms.fedavg import FedAvg
from repro.federated.algorithms.fedprox import FedProx
from repro.federated.algorithms.scaffold import Scaffold
from repro.federated.algorithms.fednova import FedNova
from repro.federated.algorithms.fedopt import FedOpt
from repro.registry import Registry

ALGORITHMS = Registry("algorithm")
ALGORITHMS.register("fedavg", FedAvg, summary="weighted model averaging (Algorithm 1)")
ALGORITHMS.register("fedprox", FedProx, summary="FedAvg + proximal term mu")
ALGORITHMS.register("scaffold", Scaffold, summary="control-variate drift correction")
ALGORITHMS.register("fednova", FedNova, summary="normalized averaging over tau_i")
ALGORITHMS.register("fedopt", FedOpt, summary="server-side momentum/adaptive step")

ALGORITHM_NAMES = ALGORITHMS.names()


def make_algorithm(name: str, **kwargs) -> FedAlgorithm:
    """Build an algorithm by name.

    ``kwargs`` are algorithm-specific: ``mu`` for FedProx, ``option`` for
    SCAFFOLD, ``server_momentum``/``variant`` for FedOpt.
    """
    return ALGORITHMS.build(name, **kwargs)


__all__ = [
    "FedAlgorithm",
    "ClientResult",
    "FedAvg",
    "FedProx",
    "Scaffold",
    "FedNova",
    "FedOpt",
    "make_algorithm",
    "ALGORITHMS",
    "ALGORITHM_NAMES",
]
