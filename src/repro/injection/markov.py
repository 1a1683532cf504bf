"""Bursty-but-stationary injection processes beyond the paper's models.

The paper's stochastic model (Section 2.1) requires slot-independence
(property (b)) and one packet per generator per slot (property (c)).
Real traffic is burstier. These processes relax exactly one property
each, giving controlled stress tests that sit *between* the stochastic
model and the window adversary:

* :class:`MarkovModulatedInjection` keeps property (c) but drops (b):
  each generator carries an ON/OFF two-state Markov chain; it injects
  only while ON. The process is stationary (started from the chain's
  stationary distribution), so a long-run injection rate
  ``lambda = ||W . F||_inf`` is still exact and the protocol's
  provisioning story applies — but arrivals cluster into ON bursts
  whose mean length is ``1 / p_on_off``. It emits range-first:
  :meth:`~MarkovModulatedInjection.indices_for_range` samples a whole
  frame in whole-array passes, bit-identical to drawing slot by slot,
  and a single slot is a range of length one.
* :class:`PoissonBatchInjection` keeps (b) but drops (c): a single
  infinite-user population injects a Poisson-distributed *batch* each
  slot. This is the classical multiple-access arrival model (ALOHA
  lineage) and the natural "infinitely many users" limit the related
  work studies.

Both expose the same ``mean_usage`` / ``injection_rate`` interface as
:class:`~repro.injection.stochastic.StochasticInjection`, so frame
provisioning and the stability experiments treat them uniformly.
:func:`empirical_usage` closes the loop by measuring the realised mean
usage of *any* process over a horizon, from one range sample.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError, InjectionError
from repro.injection.base import InjectionProcess
from repro.injection.stochastic import (
    PathDist,
    PathGenerator,
    PathPool,
    csr_gather,
)
from repro.injection.store import PacketStore
from repro.interference.base import InterferenceModel
from repro.utils.rng import RngLike, spawn_rngs

#: Most slots :meth:`MarkovModulatedInjection.indices_for_range` samples
#: at once; its tables peak at about 200 bytes per generator per slot.
_BLOCK_SLOTS = 1 << 12


class MarkovModulatedInjection(InjectionProcess):
    """Finite generators gated by independent ON/OFF Markov chains.

    Each generator behaves like a Section-2.1 :class:`PathGenerator`
    while its chain is ON and stays silent while OFF. Chains evolve
    once per slot with switching probabilities ``p_on_off`` (leave ON)
    and ``p_off_on`` (leave OFF); the stationary ON-probability is
    ``pi_on = p_off_on / (p_on_off + p_off_on)``.

    Starting every chain from its stationary distribution makes the
    process time-stationary, so the long-run mean usage vector is
    exactly ``pi_on`` times the always-on usage — property (a) of the
    paper's model holds, property (b) (independence across slots) is
    deliberately violated. Mean burst length is ``1 / p_on_off`` slots.

    Every generator reads its own uniform stream, one slot after the
    other. An OFF slot reads one uniform ``u`` and turns ON iff
    ``u < p_off_on``. An ON slot reads two: the path draw (the first
    path whose cumulative probability exceeds it; none if it exceeds
    the total mass) and the transition draw ``u``, staying ON iff
    ``u >= p_on_off``. :meth:`indices_for_range` samples a whole range
    of that layout in whole-array passes; see :meth:`_sample_block`.

    Parameters
    ----------
    generators:
        The per-generator path distributions (conditioned on ON).
    p_on_off, p_off_on:
        Per-slot switching probabilities, both in ``(0, 1]``.
    rng:
        Seed or generator; split into one stream per generator plus one
        for the chain states.
    """

    def __init__(
        self,
        generators: Sequence[PathGenerator],
        p_on_off: float,
        p_off_on: float,
        rng: RngLike = None,
        store: Optional[PacketStore] = None,
    ):
        super().__init__(store=store)
        if not generators:
            raise InjectionError("at least one generator is required")
        if not 0.0 < p_on_off <= 1.0:
            raise ConfigurationError(
                f"p_on_off must be in (0, 1], got {p_on_off}"
            )
        if not 0.0 < p_off_on <= 1.0:
            raise ConfigurationError(
                f"p_off_on must be in (0, 1], got {p_off_on}"
            )
        self._generators = list(generators)
        self._p_on_off = float(p_on_off)
        self._p_off_on = float(p_off_on)
        streams = spawn_rngs(rng, len(self._generators) + 1)
        self._rngs = streams[: len(self._generators)]
        state_rng = streams[-1]
        self._states = (
            state_rng.random(len(self._generators))
            < self.stationary_on_probability
        )
        self._next_slot = 0
        # np.cumsum accumulates left to right, exactly like a running
        # ``cumulative += p``, so searchsorted(side="right") over it
        # picks the path a sequential "draw < cumulative" scan would.
        self._cumulative = [
            np.cumsum([p for _, p in generator.distribution])
            for generator in self._generators
        ]
        self._pool = PathPool(self._generators)
        self._path_counts = np.asarray(
            [len(generator.distribution) for generator in self._generators],
            dtype=np.int64,
        )

    @property
    def stationary_on_probability(self) -> float:
        """``pi_on = p_off_on / (p_on_off + p_off_on)``."""
        return self._p_off_on / (self._p_on_off + self._p_off_on)

    @property
    def mean_burst_length(self) -> float:
        """Expected number of consecutive ON slots (``1 / p_on_off``)."""
        return 1.0 / self._p_on_off

    @property
    def generators(self) -> List[PathGenerator]:
        return list(self._generators)

    def state_dict(self) -> dict:
        """Mutable state: per-generator RNGs, chain states, slot cursor."""
        return {
            "rngs": [rng.bit_generator.state for rng in self._rngs],
            "states": [bool(s) for s in self._states],
            "next_slot": self._next_slot,
        }

    def load_state_dict(self, state: dict) -> None:
        from repro.utils.rng import restore_generator_state

        states = state.get("rngs")
        chain = state.get("states")
        next_slot = state.get("next_slot")
        if not isinstance(states, list) or len(states) != len(self._rngs):
            raise ConfigurationError(
                "Markov injection state does not match the generator count"
            )
        if not isinstance(chain, list) or len(chain) != len(self._states):
            raise ConfigurationError(
                "Markov injection state has a mismatched chain-state vector"
            )
        if not all(isinstance(s, (bool, np.bool_)) for s in chain):
            raise ConfigurationError(
                "Markov injection chain states must be booleans, "
                f"got {chain!r}"
            )
        if (
            isinstance(next_slot, bool)
            or not isinstance(next_slot, (int, np.integer))
            or next_slot < 0
        ):
            raise ConfigurationError(
                "Markov injection state needs a non-negative integer "
                f"next_slot, got {next_slot!r}"
            )
        for rng, rng_state in zip(self._rngs, states):
            restore_generator_state(rng, rng_state)
        self._states = np.asarray(chain, dtype=bool)
        self._next_slot = int(next_slot)

    def mean_usage(self, num_links: int) -> np.ndarray:
        """Stationary mean per-slot usage: ``pi_on`` times the ON usage."""
        usage = np.zeros(num_links, dtype=float)
        for generator in self._generators:
            usage += generator.mean_usage(num_links)
        return self.stationary_on_probability * usage

    def injection_rate(self, model: InterferenceModel) -> float:
        """Long-run ``lambda = ||W . F||_inf`` under ``model``."""
        return model.injection_norm(self.mean_usage(model.num_links))

    def indices_for_slot(self, slot: int) -> List[int]:
        return self.indices_for_range(slot, slot + 1).tolist()

    def indices_for_range(self, start_slot: int, end_slot: int) -> np.ndarray:
        """Sample ``[start_slot, end_slot)``, bit-identical to slot by slot.

        The packets, their store rows, the chain states and every RNG
        end where a per-slot loop over the stream layout (see the class
        docstring) would leave them. Ranges are taken in blocks of at
        most ``_BLOCK_SLOTS`` slots to bound the sampler's tables.
        """
        start_slot, end_slot = int(start_slot), int(end_slot)
        if end_slot <= start_slot:
            return np.empty(0, dtype=np.int64)
        if start_slot != self._next_slot:
            raise InjectionError(
                f"Markov-modulated injection must be queried in slot order; "
                f"expected slot {self._next_slot}, got {start_slot}"
            )
        blocks = [
            self._sample_block(low, min(low + _BLOCK_SLOTS, end_slot))
            for low in range(start_slot, end_slot, _BLOCK_SLOTS)
        ]
        return blocks[0] if len(blocks) == 1 else np.concatenate(blocks)

    def _sample_block(self, start_slot: int, end_slot: int) -> np.ndarray:
        """One block of :meth:`indices_for_range`.

        Every generator draws ``2L + 1`` uniforms for ``L`` slots (at
        most two per slot), after a snapshot of its RNG state. Node
        ``2 * (row * width + i) + on`` is generator ``row`` reaching
        stream position ``i`` in chain state ``on``; ``table`` maps each
        node to the node of the next slot, or to a sink when that slot
        would read past the drawn uniforms. Pointer doubling (each pass
        appends ``jump[walk]`` to the walk, then squares ``jump``) runs
        until the walk is ``s ~ sqrt(L)`` slots long and ``jump`` is
        ``table`` to the power ``s``; hops of ``s`` slots then list
        every generator's ``L + 1`` nodes: the ``L`` slots plus the
        state after the block. The RNGs rewind to their snapshots and
        re-draw exactly the uniforms the walk consumed.
        """
        length = end_slot - start_slot
        count = len(self._rngs)
        width = 2 * length + 1
        uniforms = np.empty((count, width))
        snapshots = []
        for row, rng in enumerate(self._rngs):
            snapshots.append(rng.bit_generator.state)
            rng.random(out=uniforms[row])

        first = 2 * width * np.arange(count, dtype=np.int64)
        off_nodes = first[:, None] + 2 * np.arange(width, dtype=np.int64)
        sink = 2 * width * count
        table = np.full(sink + 1, sink, dtype=np.int64)
        successors = table[:sink].reshape(count, width, 2)
        # OFF at i reads u[i] and moves to i + 1.
        successors[:, :-1, 0] = off_nodes[:, 1:] + (
            uniforms[:, :-1] < self._p_off_on
        )
        # ON at i reads the path draw u[i], the transition draw u[i + 1],
        # and moves to i + 2.
        successors[:, :-2, 1] = off_nodes[:, 2:] + (
            uniforms[:, 1:-1] >= self._p_on_off
        )

        # Double up to a stride of about sqrt(L) slots, then hop by it:
        # each doubling pass gathers the whole table, each hop only
        # the walk's last stride.
        walk = (first + self._states)[:, None]
        jump = table
        for _ in range((length.bit_length() + 1) // 2):
            walk = np.concatenate([walk, jump[walk]], axis=1)
            jump = jump[jump]
        hops = [walk]
        for _ in range(length // walk.shape[1]):
            hops.append(jump[hops[-1]])
        walk = np.concatenate(hops, axis=1)[:, : length + 1]
        relative = walk - first[:, None]
        positions = relative >> 1
        on = (relative & 1).astype(bool)

        for rng, snapshot, used in zip(
            self._rngs, snapshots, positions[:, length]
        ):
            rng.bit_generator.state = snapshot
            rng.random(int(used))
        self._states = on[:, length].copy()
        self._next_slot = end_slot

        # ON slots in (slot, generator) order, the per-slot allocation order.
        slots, rows = np.nonzero(on[:, :length].T)
        draws = uniforms[rows, positions[rows, slots]]
        choices = np.empty(draws.size, dtype=np.int64)
        for row, cumulative in enumerate(self._cumulative):
            mine = rows == row
            choices[mine] = np.searchsorted(
                cumulative, draws[mine], side="right"
            )
        # A draw past the total mass injects nothing.
        hit = choices < self._path_counts[rows]
        if not hit.any():
            return np.empty(0, dtype=np.int64)
        rows, slots, choices = rows[hit], slots[hit], choices[hit]
        links, lengths = self._pool.gather(self._pool.first[rows] + choices)
        return self._store.allocate_flat(links, lengths, start_slot + slots)


class PoissonBatchInjection(InjectionProcess):
    """Poisson batch arrivals from an infinite-user population.

    In each slot an independent ``Poisson(batch_mean)`` number of
    packets arrives; each packet independently draws its path from
    ``path_distribution`` (probabilities summing to 1). Slots are
    independent and identically distributed — properties (a) and (b)
    of the paper's model hold, but a single slot can carry arbitrarily
    many packets, so the finite-generator property (c) is dropped.

    The mean usage vector is ``batch_mean`` times the per-packet
    expected usage, so ``injection_rate`` remains exact.
    """

    def __init__(
        self,
        path_distribution: PathDist,
        batch_mean: float,
        rng: RngLike = None,
        store: Optional[PacketStore] = None,
    ):
        super().__init__(store=store)
        if batch_mean < 0:
            raise ConfigurationError(
                f"batch_mean must be non-negative, got {batch_mean}"
            )
        total = 0.0
        cleaned: List[Tuple[Tuple[int, ...], float]] = []
        for path, probability in path_distribution:
            if probability < 0:
                raise InjectionError(
                    f"negative path probability {probability}"
                )
            if len(path) == 0:
                raise InjectionError("path distribution contains an empty path")
            total += probability
            cleaned.append((tuple(int(e) for e in path), float(probability)))
        if cleaned and abs(total - 1.0) > 1e-9:
            raise InjectionError(
                f"path probabilities must sum to 1, got {total}"
            )
        self._paths = cleaned
        self._cumulative = np.cumsum([p for _, p in cleaned]) if cleaned else None
        self._batch_mean = float(batch_mean)
        (self._rng,) = spawn_rngs(rng, 1)

    @property
    def batch_mean(self) -> float:
        return self._batch_mean

    def state_dict(self) -> dict:
        """Mutable state: the single arrival RNG."""
        return {"rng": self._rng.bit_generator.state}

    def load_state_dict(self, state: dict) -> None:
        from repro.utils.rng import restore_generator_state

        restore_generator_state(self._rng, state["rng"])

    def mean_usage(self, num_links: int) -> np.ndarray:
        """``batch_mean`` times the per-packet expected link usage."""
        usage = np.zeros(num_links, dtype=float)
        for path, probability in self._paths:
            for link_id in path:
                usage[link_id] += probability
        return self._batch_mean * usage

    def injection_rate(self, model: InterferenceModel) -> float:
        """Exact ``lambda = ||W . F||_inf`` under ``model``."""
        return model.injection_norm(self.mean_usage(model.num_links))

    def indices_for_slot(self, slot: int) -> List[int]:
        if not self._paths or self._batch_mean == 0.0:
            return []
        count = int(self._rng.poisson(self._batch_mean))
        indices: List[int] = []
        for _ in range(count):
            draw = self._rng.random()
            index = int(np.searchsorted(self._cumulative, draw, side="right"))
            index = min(index, len(self._paths) - 1)
            indices.append(self._allocate(self._paths[index][0], slot))
        return indices


def empirical_usage(
    process: InjectionProcess, num_links: int, horizon: int
) -> np.ndarray:
    """Measured mean per-slot usage of ``process`` over ``horizon`` slots.

    Samples ``indices_for_range(0, horizon)`` once and counts the
    sampled packets' path links. Consumes the process (stateful
    processes advance); use a freshly seeded instance when comparing
    against :meth:`mean_usage`.
    """
    if horizon <= 0:
        raise ConfigurationError(f"horizon must be positive, got {horizon}")
    store = process.store
    indices = process.indices_for_range(0, horizon)
    links, _ = csr_gather(store.path_links, store.offsets, indices)
    if links.size and int(links.max()) >= num_links:
        raise ConfigurationError(
            f"process injected link {int(links.max())} but num_links is "
            f"{num_links}"
        )
    return np.bincount(links, minlength=num_links) / horizon


__all__ = [
    "MarkovModulatedInjection",
    "PoissonBatchInjection",
    "empirical_usage",
]
