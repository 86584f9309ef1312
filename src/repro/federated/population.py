"""Lazy client populations: million-party federations in O(cohort) memory.

The classic simulator shape — :func:`~repro.federated.client.make_clients`
materializing one :class:`~repro.federated.client.Client` (dataset view,
private generator, state dict) per party up front — is O(population) in
memory and startup time.  Production cross-device FL (FedML, FedJAX,
Google's system papers) never does this: a population of millions exists
only as an ID space, and a party is *derived* when sampled.

This module provides that abstraction:

- :class:`ClientPopulation` — the interface: ``checkout(party)``
  materializes a live :class:`Client` on demand, ``release(party)``
  spills its persistent state (optimizer / control-variate /
  error-feedback residuals, plus the advanced generator state) back into
  a cold store and drops the materialization.  Memory is
  O(checked-out) + O(previously-touched parties' state), never O(size).
- :class:`MaterializedPopulation` — an adapter over a prebuilt client
  list, so small federations (and bitwise sync-equality tests) run
  through the exact same engine code path.
- :class:`VirtualPopulation` — derives each party's dataset indices and
  RNG stream as a **pure function of** ``(seed, party_id)``: sampling
  party 517_203 of a million-party population touches O(samples_per_
  client) memory, and re-deriving it in another process yields the same
  party bit for bit.

Derivation scheme
-----------------
Party ``p``'s draws come from ``np.random.default_rng((seed, tag, p))``
— the same closed-form seeding idiom :class:`~repro.federated.faults.
FaultModel` uses for its pure per-``(round, party)`` draws.  ``tag`` 0
derives the dataset indices (consumed once at first materialization),
``tag`` 1 seeds the client's private training generator (shuffles, codec
draws), so index derivation never perturbs training randomness.

Label skew uses the paper's Dirichlet recipe per party: proportions
``Dir(beta)`` over classes, a multinomial split of ``samples_per_client``
across them, then per-class draws from precomputed class pools.  Parties
share base samples (with a million parties drawing from one base dataset
they must); each party's *multiset* of indices is still its own.
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import Subset
from repro.federated.client import Client


class ClientView:
    """Executor-facing adapter: ``clients[party]`` over a lazy population.

    Executors (and :meth:`FedAlgorithm.prepare`) only ever take
    ``len(clients)`` and index parties the engine already checked out, so
    this view satisfies the ``list[Client]`` contract without holding one
    object per party.  Indexing a party that is not currently checked out
    is an engine bug and raises instead of silently materializing —
    materialization must go through :meth:`ClientPopulation.checkout` so
    the release/spill lifecycle stays balanced.
    """

    def __init__(self, population: "ClientPopulation"):
        self._population = population

    def __len__(self) -> int:
        return self._population.size

    def __getitem__(self, party: int) -> Client:
        return self._population.active(party)


class ClientPopulation:
    """Interface: derive parties on demand, spill their state when cold."""

    #: total number of parties in the federation (the ID space)
    size: int

    def checkout(self, party: int) -> Client:
        """Materialize (or re-acquire) one party; balanced by release."""
        raise NotImplementedError

    def release(self, party: int) -> None:
        """Drop one checkout; the last release spills state and frees."""
        raise NotImplementedError

    def active(self, party: int) -> Client:
        """The currently checked-out client for ``party`` (no refcount)."""
        raise NotImplementedError

    def client_view(self) -> ClientView:
        """A ``list[Client]``-shaped adapter for executors/algorithms."""
        return ClientView(self)

    @property
    def materialized_count(self) -> int:
        """Live client objects right now (the flat-memory invariant)."""
        raise NotImplementedError


class MaterializedPopulation(ClientPopulation):
    """A population backed by prebuilt clients (the classic simulator).

    Checkout returns the live object and release is a no-op spill — state
    already lives on the client — so the async engine drives small
    federations through identical code to the million-party case.
    """

    def __init__(self, clients: list[Client]):
        if not clients:
            raise ValueError("need at least one client")
        self._clients = list(clients)
        self.size = len(self._clients)

    def checkout(self, party: int) -> Client:
        return self._clients[party]

    def release(self, party: int) -> None:
        pass

    def active(self, party: int) -> Client:
        return self._clients[party]

    def client_view(self):
        # Every party is resident, so executors index the real list.
        return self._clients

    @property
    def materialized_count(self) -> int:
        return self.size


class VirtualPopulation(ClientPopulation):
    """Derive any of ``size`` parties on demand from ``(seed, party)``.

    Parameters
    ----------
    dataset:
        The base pool parties draw their local samples from (an
        :class:`~repro.data.dataset.ArrayDataset` or compatible).
    size:
        Number of parties in the federation.
    samples_per_client:
        Local dataset size per party (must not exceed the base pool).
    seed:
        Root of every per-party derivation; two populations built with
        the same ``(dataset, size, samples_per_client, seed, skew_beta)``
        are indistinguishable, in any process.
    skew_beta:
        ``None`` — iid parties (uniform draws without replacement from
        the pool).  A positive float — Dirichlet(beta) label skew, the
        paper's ``p_k ~ Dir(beta)`` recipe applied per party.
    """

    def __init__(
        self,
        dataset,
        size: int,
        samples_per_client: int = 64,
        seed: int = 0,
        skew_beta: float | None = None,
    ):
        if size <= 0:
            raise ValueError(f"population size must be positive, got {size}")
        if samples_per_client <= 0:
            raise ValueError(
                f"samples_per_client must be positive, got {samples_per_client}"
            )
        if samples_per_client > len(dataset):
            raise ValueError(
                f"samples_per_client ({samples_per_client}) exceeds the base "
                f"dataset ({len(dataset)} samples)"
            )
        if skew_beta is not None and skew_beta <= 0:
            raise ValueError(f"skew_beta must be positive, got {skew_beta}")
        self.dataset = dataset
        self.size = size
        self.samples_per_client = samples_per_client
        self.seed = int(seed)
        self.skew_beta = skew_beta
        self._class_pools: list[np.ndarray] | None = None
        if skew_beta is not None:
            labels = np.asarray(dataset.labels)
            num_classes = int(labels.max()) + 1
            self._class_pools = [
                np.flatnonzero(labels == c) for c in range(num_classes)
            ]
        #: live clients and their checkout depth
        self._active: dict[int, Client] = {}
        self._refs: dict[int, int] = {}
        #: cold store: parties that participated before, keyed by id —
        #: O(touched parties), independent of ``size``
        self._spilled: dict[int, dict] = {}

    # -- derivation (pure functions of (seed, party)) -------------------
    def _party_rng(self, tag: int, party: int) -> np.random.Generator:
        return np.random.default_rng((self.seed & 0x7FFFFFFF, tag, int(party)))

    def party_indices(self, party: int) -> np.ndarray:
        """The party's sample indices into the base dataset (pure)."""
        rng = self._party_rng(0, party)
        if self._class_pools is None:
            return np.sort(
                rng.choice(len(self.dataset), self.samples_per_client, replace=False)
            )
        proportions = rng.dirichlet(
            np.full(len(self._class_pools), self.skew_beta)
        )
        counts = rng.multinomial(self.samples_per_client, proportions)
        chunks = []
        for pool, count in zip(self._class_pools, counts):
            if count == 0:
                continue
            if len(pool) == 0:
                # Empty class in the base pool: redistribute uniformly.
                chunks.append(rng.choice(len(self.dataset), count, replace=True))
                continue
            chunks.append(pool[rng.integers(0, len(pool), size=count)])
        return np.sort(np.concatenate(chunks))

    def _materialize(self, party: int) -> Client:
        indices = self.party_indices(party)
        client = Client(
            client_id=int(party),
            dataset=Subset(self.dataset, indices),
            rng=self._party_rng(1, party),
        )
        cold = self._spilled.pop(party, None)
        if cold is not None:
            client.rng.bit_generator.state = cold["rng"]
            client.state = cold["state"]
        return client

    # -- lifecycle ------------------------------------------------------
    def checkout(self, party: int) -> Client:
        if not 0 <= party < self.size:
            raise IndexError(
                f"party {party} outside population [0, {self.size})"
            )
        if party not in self._active:
            self._active[party] = self._materialize(party)
            self._refs[party] = 0
        self._refs[party] += 1
        return self._active[party]

    def release(self, party: int) -> None:
        refs = self._refs.get(party)
        if refs is None:
            raise RuntimeError(f"release of party {party} without checkout")
        if refs > 1:
            self._refs[party] = refs - 1
            return
        client = self._active.pop(party)
        del self._refs[party]
        self._spilled[party] = {
            "rng": client.rng.bit_generator.state,
            "state": client.state,
        }

    def active(self, party: int) -> Client:
        client = self._active.get(party)
        if client is None:
            raise KeyError(
                f"party {party} is not checked out; executors must only "
                "touch parties the engine dispatched"
            )
        return client

    @property
    def materialized_count(self) -> int:
        return len(self._active)

    @property
    def spilled_count(self) -> int:
        """Cold-store entries (parties that participated and went cold)."""
        return len(self._spilled)

    def __repr__(self) -> str:
        skew = "iid" if self.skew_beta is None else f"dirichlet({self.skew_beta})"
        return (
            f"VirtualPopulation(size={self.size}, "
            f"samples_per_client={self.samples_per_client}, {skew})"
        )
