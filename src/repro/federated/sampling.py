"""Party sampling for partial participation (paper Sections 5.6 and 6.1).

Two samplers, both taking the party *count* that
:meth:`repro.federated.server.Federation._sample` computed from the
configured participation (``max(1, round(fraction * N))``, over-sampled
under faults):

- :func:`sample_clients` — uniform random sampling, the paper's default
  (Algorithm 1 line 6), whose instability Figure 12 documents;
- :class:`StratifiedSampler` — the paper's Section 6.1 proposal made
  concrete: "instead of random sampling, selective sampling according to
  the data distribution features of the parties may significantly
  increase the learning stability".  Parties are chosen greedily so that
  the pooled label distribution of the sample stays close (in KL) to the
  global one, with a random tie-breaking seed party per round so coverage
  still rotates.
"""

from __future__ import annotations

import numpy as np


def sample_clients(
    population: int, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Uniformly sample ``count`` distinct parties from ``population``.

    The paper's scalability experiment samples 10 of 100 parties.
    ``count`` must satisfy ``0 < count <= population`` — asking for more
    clients than exist is an error, not a silent clamp to the full
    population.

    The draw is ``rng.choice(N, size=count, replace=False)`` (numpy
    implements it with Floyd's algorithm — O(count) time and memory, no
    O(population) permutation, so million-client populations stay flat).
    ``count == population`` (full participation) returns all parties in
    index order without touching the RNG, so runs are byte-for-byte
    reproducible across sampler versions.
    """
    if population <= 0:
        raise ValueError(f"population must be positive, got {population}")
    if not 0 < count <= population:
        raise ValueError(
            f"count must be in [1, population={population}], got {count}; "
            "cannot sample more clients than the population holds"
        )
    if count == population:
        return np.arange(population)
    return np.sort(rng.choice(population, size=count, replace=False))


class StratifiedSampler:
    """Label-distribution-aware party sampling (paper Section 6.1).

    Parameters
    ----------
    label_counts:
        ``(num_parties, num_classes)`` per-party label counts (e.g. from
        :meth:`repro.partition.base.Partition.counts_matrix`, or collected
        from the clients — which is a privacy trade-off the paper's
        Section 6.1 acknowledges by pointing at sketching techniques).
    """

    def __init__(self, label_counts: np.ndarray):
        label_counts = np.asarray(label_counts, dtype=np.float64)
        if label_counts.ndim != 2:
            raise ValueError(
                f"label_counts must be (parties, classes), got {label_counts.shape}"
            )
        if (label_counts < 0).any():
            raise ValueError("label counts must be non-negative")
        if label_counts.sum() == 0:
            raise ValueError("label counts are all zero")
        self.label_counts = label_counts
        self._global = label_counts.sum(axis=0)
        self._global = self._global / self._global.sum()

    @property
    def num_parties(self) -> int:
        return self.label_counts.shape[0]

    def _kl_to_global(self, pooled: np.ndarray) -> float:
        eps = 1e-12
        p = self._global + eps
        q = pooled / max(pooled.sum(), eps) + eps
        return float(np.sum(p * np.log(p / q)))

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Select ``count`` parties whose pooled labels approximate the
        global mix.

        Greedy: start from a random seed party, then repeatedly add the
        party that most reduces KL(global || pooled-sample).
        """
        if not 0 < count <= self.num_parties:
            raise ValueError(
                f"count must be in [1, {self.num_parties}], got {count}"
            )
        if count == self.num_parties:
            return np.arange(self.num_parties)
        chosen: list[int] = [int(rng.integers(self.num_parties))]
        pooled = self.label_counts[chosen[0]].copy()
        remaining = set(range(self.num_parties)) - set(chosen)
        while len(chosen) < count:
            best_party = None
            best_kl = np.inf
            # Iterate a sorted sequence, not the raw set: KL ties then
            # break toward the lowest party index on every platform,
            # instead of following hash order.
            for party in sorted(remaining):
                kl = self._kl_to_global(pooled + self.label_counts[party])
                if kl < best_kl:
                    best_kl = kl
                    best_party = party
            chosen.append(best_party)
            pooled += self.label_counts[best_party]
            remaining.discard(best_party)
        return np.sort(np.array(chosen))
