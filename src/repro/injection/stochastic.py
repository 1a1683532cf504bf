"""Stochastic injection by finite, independent generators (Section 2.1).

Each :class:`PathGenerator` holds a distribution over paths with total
probability at most 1; in every slot it independently injects at most
one packet according to that distribution (property (c): one packet per
generator per slot; properties (a)/(b): time-invariance and
independence come from drawing fresh uniform randomness each slot from
the generator's own RNG stream).

:class:`StochasticInjection` aggregates generators, computes the exact
mean path-usage vector ``F`` (``F(e) = sum_g sum_{P : e in P} E[X_{g,P}]``,
multiplicity counted), and therefore the exact injection rate
``lambda = ||W . F||_inf`` against any interference model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError, InjectionError
from repro.injection.base import InjectionProcess
from repro.injection.store import PacketStore
from repro.interference.base import InterferenceModel
from repro.network.routing import RoutingTable
from repro.utils.rng import RngLike, ensure_rng, spawn_rngs

PathDist = Sequence[Tuple[Tuple[int, ...], float]]


@dataclass
class PathGenerator:
    """One packet generator: a distribution over paths.

    ``distribution`` is a list of ``(path, probability)`` pairs; the
    probabilities must sum to at most 1 (the remainder is the
    probability of injecting nothing in a slot).
    """

    distribution: PathDist

    def __post_init__(self):
        total = 0.0
        cleaned = []
        for path, probability in self.distribution:
            if probability < 0:
                raise InjectionError(
                    f"negative path probability {probability} in generator"
                )
            if len(path) == 0:
                raise InjectionError("generator contains an empty path")
            total += probability
            cleaned.append((tuple(int(e) for e in path), float(probability)))
        self._check_total(total)
        self.distribution = cleaned

    @staticmethod
    def _check_total(total: float) -> None:
        if total > 1.0 + 1e-9:
            raise InjectionError(
                f"generator path probabilities sum to {total} > 1; a generator "
                "injects at most one packet per slot"
            )

    @classmethod
    def _from_cleaned(cls, distribution) -> "PathGenerator":
        """Construct from an already-cleaned distribution, skipping the
        per-path re-validation of ``__post_init__`` (which dominated
        injection setup on all-pairs pools)."""
        generator = object.__new__(cls)
        generator.distribution = distribution
        return generator

    @property
    def total_probability(self) -> float:
        """Probability of injecting any packet in a slot."""
        return sum(p for _, p in self.distribution)

    def scaled(self, factor: float) -> "PathGenerator":
        """A copy with all probabilities multiplied by ``factor``."""
        if factor < 0:
            raise InjectionError(f"scale factor must be non-negative, got {factor}")
        self._check_total(self.total_probability * factor)
        return PathGenerator._from_cleaned(
            [
                (path, probability * factor)
                for path, probability in self.distribution
            ]
        )

    def mean_usage(self, num_links: int) -> np.ndarray:
        """This generator's contribution to ``F`` (per-slot expectation)."""
        usage = np.zeros(num_links, dtype=float)
        for path, probability in self.distribution:
            for link_id in path:
                usage[link_id] += probability
        return usage


def csr_gather(
    links: np.ndarray, offsets: np.ndarray, ids: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Concatenated CSR rows ``ids`` (in order) and their lengths.

    Row ``i`` is ``links[offsets[i] : offsets[i + 1]]``; the gather is
    one repeat-indexing pass, whatever the rows' lengths.
    """
    starts = offsets[ids]
    lengths = offsets[ids + 1] - starts
    ends = np.cumsum(lengths)
    within = np.arange(int(ends[-1]) if ends.size else 0, dtype=np.int64)
    within -= np.repeat(ends - lengths, lengths)
    return links[np.repeat(starts, lengths) + within], lengths


class PathPool:
    """Every generator's paths as one CSR pool, for batch allocation.

    Generator ``g``'s ``j``-th path is pool row ``first[g] + j``;
    :meth:`gather` turns an array of pool rows into the
    ``(links_flat, lengths)`` pair :meth:`PacketStore.allocate_flat`
    takes, so a whole frame's packets allocate in one call.
    """

    def __init__(self, generators: Sequence[PathGenerator]):
        paths = [path for g in generators for path, _ in g.distribution]
        sizes = np.asarray(
            [len(g.distribution) for g in generators], dtype=np.int64
        )
        self.first = np.zeros(sizes.size, dtype=np.int64)
        np.cumsum(sizes[:-1], out=self.first[1:])
        self.offsets = np.zeros(len(paths) + 1, dtype=np.int64)
        np.cumsum(
            np.asarray([len(path) for path in paths], dtype=np.int64),
            out=self.offsets[1:],
        )
        self.links = np.fromiter(
            (link for path in paths for link in path),
            dtype=np.int64,
            count=int(self.offsets[-1]),
        )

    def gather(self, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(links_flat, lengths)`` of the pool rows ``rows``, in order."""
        return csr_gather(self.links, self.offsets, rows)


class StochasticInjection(InjectionProcess):
    """Aggregate of independent :class:`PathGenerator` s."""

    def __init__(
        self,
        generators: Sequence[PathGenerator],
        rng: RngLike = None,
        store: Optional[PacketStore] = None,
    ):
        super().__init__(store=store)
        if not generators:
            raise InjectionError("at least one generator is required")
        self._generators = list(generators)
        self._rngs = spawn_rngs(rng, len(self._generators))
        # Batch-sampling state, built once (rebuilding it per frame
        # costs O(paths) and dominated all-pairs pools): per-generator
        # multinomial pvals (path probabilities + idle remainder) and
        # one path pool over every generator's paths, so a frame's
        # packets flatten into one PacketStore.allocate_flat call.
        self._pvals = []
        for generator in self._generators:
            probabilities = [p for _, p in generator.distribution]
            idle = max(0.0, 1.0 - sum(probabilities))
            self._pvals.append(probabilities + [idle])
        self._pool = PathPool(self._generators)

    @property
    def generators(self) -> List[PathGenerator]:
        return list(self._generators)

    def state_dict(self) -> dict:
        """Mutable state: one RNG stream per generator."""
        return {"rngs": [rng.bit_generator.state for rng in self._rngs]}

    def load_state_dict(self, state: dict) -> None:
        from repro.errors import ConfigurationError
        from repro.utils.rng import restore_generator_state

        states = state.get("rngs")
        if not isinstance(states, list) or len(states) != len(self._rngs):
            raise ConfigurationError(
                f"injection state has {0 if not isinstance(states, list) else len(states)} "
                f"RNG streams but this process has {len(self._rngs)} generators"
            )
        for rng, rng_state in zip(self._rngs, states):
            restore_generator_state(rng, rng_state)

    def mean_usage(self, num_links: int) -> np.ndarray:
        """The exact mean per-slot path-usage vector ``F``."""
        usage = np.zeros(num_links, dtype=float)
        for generator in self._generators:
            usage += generator.mean_usage(num_links)
        return usage

    def injection_rate(self, model: InterferenceModel) -> float:
        """The exact rate ``lambda = ||W . F||_inf`` under ``model``."""
        return model.injection_norm(self.mean_usage(model.num_links))

    def indices_for_slot(self, slot: int) -> List[int]:
        indices: List[int] = []
        for generator, rng in zip(self._generators, self._rngs):
            draw = rng.random()
            cumulative = 0.0
            for path, probability in generator.distribution:
                cumulative += probability
                if draw < cumulative:
                    indices.append(self._allocate(path, slot))
                    break
        return indices

    def indices_for_range(self, start_slot: int, end_slot: int) -> np.ndarray:
        """Batch sampling: one multinomial per generator per range.

        Over ``L`` slots a generator injects a multinomially distributed
        number of packets per path (``L`` trials over the path
        probabilities plus the idle remainder) — identical in
        distribution to ``L`` independent per-slot draws. Injection
        slots are stamped uniformly inside the range; the dynamic
        protocol only consumes whole-frame batches, so the stamps only
        affect latency bookkeeping, for which uniform placement is the
        faithful marginal.
        """
        length = end_slot - start_slot
        if length <= 0:
            return np.empty(0, dtype=np.int64)
        slot_runs: List[np.ndarray] = []
        path_id_runs: List[np.ndarray] = []
        for row, (pvals, rng) in enumerate(zip(self._pvals, self._rngs)):
            counts = rng.multinomial(length, pvals)
            # Only the drawn paths are visited (the idle count is the
            # trailing entry and never allocates); the RNG stream is
            # untouched by the skip — zero-count paths drew nothing.
            drawn = np.flatnonzero(counts[:-1])
            if not drawn.size:
                continue
            drawn_counts = counts[drawn]
            # One batched stamp draw per generator: slots are iid
            # uniform regardless of path, so drawing the whole batch
            # at once is the same distribution as per-path draws.
            slot_runs.append(
                rng.integers(length, size=int(drawn_counts.sum()))
            )
            # Per-packet pool ids repeat each drawn path `count` times.
            path_id_runs.append(
                np.repeat(self._pool.first[row] + drawn, drawn_counts)
            )
        if not slot_runs:
            return np.empty(0, dtype=np.int64)
        links, lengths = self._pool.gather(np.concatenate(path_id_runs))
        stamps = start_slot + np.concatenate(slot_runs)
        indices = self._store.allocate_flat(links, lengths, stamps)
        # Stable (injected_at, id) order, matching the per-slot stream.
        order = np.lexsort((indices, stamps))
        return indices[order]


def uniform_pair_injection(
    routing: RoutingTable,
    model: InterferenceModel,
    target_rate: float,
    num_generators: int = 1,
    pairs: Optional[Sequence[Tuple[int, int]]] = None,
    rng: RngLike = None,
    store: Optional[PacketStore] = None,
) -> StochasticInjection:
    """Injection uniform over routed pairs, scaled to an exact target rate.

    Builds ``num_generators`` identical generators, each uniform over
    the given source/destination ``pairs`` (default: every routed pair),
    then scales the per-path probabilities so that the aggregate
    injection rate under ``model`` is exactly ``target_rate``.

    Raises if the target rate would force some generator above one
    packet per slot (property (c)) — use more generators in that case.
    """
    if target_rate < 0:
        raise ConfigurationError(f"target_rate must be >= 0, got {target_rate}")
    if num_generators < 1:
        raise ConfigurationError(
            f"num_generators must be >= 1, got {num_generators}"
        )
    if pairs is None:
        pairs = routing.pairs()
    if not pairs:
        raise ConfigurationError("no routed pairs available for injection")
    paths = []
    for source, destination in pairs:
        path = routing.path(source, destination)
        if len(path) == 0:
            raise ConfigurationError(
                f"routing returned an empty path for pair "
                f"({source}, {destination}); injection paths need at "
                "least one link"
            )
        paths.append(path)
    base_probability = 1.0 / len(paths)
    base = PathGenerator([(path, base_probability) for path in paths])
    # All generators are identical, so the aggregate usage is one
    # scalar multiply (the old form summed num_generators copies of the
    # same array).
    base_rate = model.injection_norm(
        num_generators * base.mean_usage(model.num_links)
    )
    if base_rate <= 0:
        raise ConfigurationError("base injection rate is zero; cannot scale")
    factor = target_rate / base_rate
    if base.total_probability * factor > 1.0 + 1e-9:
        raise ConfigurationError(
            f"target rate {target_rate} needs per-generator injection "
            f"probability {base.total_probability * factor:.3f} > 1; "
            "increase num_generators"
        )
    generators = [base.scaled(factor) for _ in range(num_generators)]
    return StochasticInjection(generators, rng=rng, store=store)


__all__ = ["PathGenerator", "StochasticInjection", "uniform_pair_injection"]
