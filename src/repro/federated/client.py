"""The party ("client") side of the federation.

A client owns a local dataset, a private shuffling generator, and a small
bag of persistent per-party state: SCAFFOLD's control variate ``c_i`` and —
under the ``bn_policy="local"`` remedy — its own batch-norm statistics that
survive across rounds instead of being overwritten by the server broadcast.
"""

from __future__ import annotations

import numpy as np

from repro.data.loader import DataLoader


class Client:
    """One data silo participating in federated training.

    Parameters
    ----------
    client_id:
        Index of the party (``P_i`` in the paper).
    dataset:
        The party's local data (a ``Subset`` view or materialized dataset).
    rng:
        Private generator for local shuffling; derive it from the run seed
        so whole experiments are reproducible.

    A client with an **empty dataset** is permitted (low-beta Dirichlet
    partitions legitimately produce empty parties): it contributes zero
    label counts and zero samples.  :func:`make_clients` still rejects or
    drops empty parties at federation-construction time — silently
    shrinking a federation skews comparisons — but code that builds
    clients directly may keep them.
    """

    def __init__(
        self,
        client_id: int,
        dataset,
        rng: np.random.Generator,
        local_epochs: int | None = None,
    ):
        if local_epochs is not None and local_epochs <= 0:
            raise ValueError(f"local_epochs must be positive, got {local_epochs}")
        self.client_id = client_id
        self.dataset = dataset
        self.rng = rng
        #: per-party local-epoch override.  The paper's FedNova motivation:
        #: "different parties may conduct different numbers of local steps
        #: ... when parties have different computation power given the same
        #: time constraint".  ``None`` uses the run config's value.
        self.local_epochs = local_epochs
        #: algorithm-managed persistent state (e.g. SCAFFOLD's c_i)
        self.state: dict = {}
        #: fault-injection hook: when set, local training raises
        #: :class:`~repro.federated.faults.InjectedCrash` after this many
        #: mini-batch steps.  Transient — the executor sets it for one
        #: task and clears it afterwards; never checkpointed.
        self.crash_after_steps: int | None = None

    @property
    def num_samples(self) -> int:
        return len(self.dataset)

    def epochs(self, default: int) -> int:
        """Local epochs per round: this party's override, else ``default``."""
        return default if self.local_epochs is None else self.local_epochs

    def loader(self, batch_size: int) -> DataLoader:
        """A shuffling loader over the local data for one round."""
        return DataLoader(self.dataset, batch_size, shuffle=True, rng=self.rng)

    def label_distribution(self, num_classes: int) -> np.ndarray:
        counts = self.dataset.class_counts(num_classes)
        return counts / max(counts.sum(), 1)

    def __repr__(self) -> str:
        return f"Client(id={self.client_id}, samples={self.num_samples})"


def make_clients(
    partition,
    dataset,
    seed: int = 0,
    drop_empty: bool = False,
    local_epochs: list[int] | None = None,
) -> list[Client]:
    """Build one client per party from a partition of ``dataset``.

    Parameters
    ----------
    drop_empty:
        When True, parties that received no samples are silently skipped
        (can happen under extreme Dirichlet skew with ``min_size=0``).
        When False, an empty party raises — usually the right default,
        because silently shrinking the federation skews comparisons.
    local_epochs:
        Optional per-party epoch counts simulating heterogeneous compute
        (the FedNova scenario); must have one entry per party.
    """
    if local_epochs is not None and len(local_epochs) != partition.num_parties:
        raise ValueError(
            f"local_epochs has {len(local_epochs)} entries for "
            f"{partition.num_parties} parties"
        )
    root = np.random.default_rng(seed)
    clients = []
    for client_id, party_data in enumerate(partition.subsets(dataset)):
        child = np.random.default_rng(root.integers(2**63))
        if len(party_data) == 0:
            if drop_empty:
                continue
            raise ValueError(
                f"party {client_id} is empty; use a partitioner min_size or "
                "drop_empty=True"
            )
        epochs = None if local_epochs is None else local_epochs[client_id]
        clients.append(Client(client_id, party_data, child, local_epochs=epochs))
    return clients


def heterogeneous_epochs(
    num_parties: int,
    base_epochs: int,
    rng: np.random.Generator,
    low_factor: float = 0.2,
) -> list[int]:
    """Draw per-party epoch counts simulating unequal computation power.

    Each party completes between ``low_factor * base_epochs`` and
    ``base_epochs`` local epochs (at least 1), uniformly at random — the
    "same time constraint, different computation power" setting FedNova
    targets.
    """
    if base_epochs <= 0:
        raise ValueError(f"base_epochs must be positive, got {base_epochs}")
    if not 0 < low_factor <= 1:
        raise ValueError(f"low_factor must be in (0, 1], got {low_factor}")
    low = max(1, int(round(low_factor * base_epochs)))
    return [int(rng.integers(low, base_epochs + 1)) for _ in range(num_parties)]
