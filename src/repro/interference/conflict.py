"""Conflict-graph interference models (paper Section 7.2).

The conflict graph has the network's *links* as vertices; an edge
``{e, e'}`` means simultaneous transmissions on ``e`` and ``e'``
collide. Success predicate: a transmission on ``e`` is received iff no
conflicting link transmits in the same slot.

The impact matrix follows the paper's construction from an ordering
``pi`` of the links (Definition 1 territory): ``W[e, e'] = 1`` iff ``e``
and ``e'`` conflict and ``pi(e') <= pi(e)`` (plus the mandatory
diagonal). The induced measure

    I = max_e  sum_{e' conflicting with e, pi(e') <= pi(e)} R(e')

only charges each link for its *earlier* conflicting neighbours; with an
ordering witnessing inductive independence number ``rho``, a feasible set
can carry measure up to ``rho``, which is where the ``O(rho log m)``
competitive ratio of Section 7.2 comes from.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Sequence, Set

import numpy as np

from repro.errors import ConfigurationError
from repro.interference.base import InterferenceModel, SubmatrixBatchEvaluator
from repro.network.network import Network

ConflictMap = Mapping[int, Set[int]]


class _ConflictBatchEvaluator(SubmatrixBatchEvaluator):
    """Conflict check on a cached boolean adjacency submatrix.

    Success is pure boolean algebra (a transmitter wins iff no
    conflicting transmitter), so the batch path is exactly equivalent
    to the scalar set intersection — no floating point involved. The
    adjacency cache is sliced once per run; the base class's
    local->cache index map absorbs drained links without copying it.
    """

    def __init__(self, model: "ConflictGraphModel", busy: np.ndarray):
        super().__init__(busy, model.adjacency_matrix()[np.ix_(busy, busy)])

    def successes_local(self, att_idx: np.ndarray) -> np.ndarray:
        # The adjacency diagonal is False (no self-conflicts), so the
        # row-wise any() over the transmitter block is exactly "some
        # *other* transmitter conflicts with me".
        return ~self._block(att_idx).any(axis=1)


def _symmetrised(conflicts: ConflictMap, num_links: int) -> Dict[int, Set[int]]:
    """Validate and symmetrise a conflict mapping (no self-conflicts)."""
    table: Dict[int, Set[int]] = {e: set() for e in range(num_links)}
    for e, neighbours in conflicts.items():
        if not 0 <= e < num_links:
            raise ConfigurationError(f"conflict map references unknown link {e}")
        for e_prime in neighbours:
            if not 0 <= e_prime < num_links:
                raise ConfigurationError(
                    f"conflict map references unknown link {e_prime}"
                )
            if e_prime == e:
                continue
            table[e].add(e_prime)
            table[e_prime].add(e)
    return table


class ConflictGraphModel(InterferenceModel):
    """Binary conflicts between links, with an ordering-based ``W``.

    Parameters
    ----------
    network:
        The underlying network.
    conflicts:
        Mapping from link id to the set of link ids it conflicts with.
        Symmetrised automatically.
    ordering:
        Optional permutation ``pi`` as a sequence where ``ordering[k]``
        is the link with rank ``k``. Defaults to id order. Choose an
        ordering witnessing small inductive independence (see
        :mod:`repro.interference.inductive`) to get the tight measure.
    """

    def __init__(
        self,
        network: Network,
        conflicts: ConflictMap,
        ordering: Optional[Sequence[int]] = None,
    ):
        super().__init__(network)
        self._conflicts = _symmetrised(conflicts, network.num_links)
        if ordering is None:
            ordering = list(range(network.num_links))
        if sorted(ordering) != list(range(network.num_links)):
            raise ConfigurationError(
                "ordering must be a permutation of all link ids"
            )
        self._rank = {link: rank for rank, link in enumerate(ordering)}
        self._adjacency_cache: Optional[np.ndarray] = None

    @property
    def conflicts(self) -> Dict[int, Set[int]]:
        """The symmetrised conflict adjacency (copy)."""
        return {e: set(neigh) for e, neigh in self._conflicts.items()}

    def rank(self, link_id: int) -> int:
        """The ordering rank ``pi(link_id)``."""
        return self._rank[link_id]

    def conflict_degree(self, link_id: int) -> int:
        """Number of links conflicting with ``link_id``."""
        return len(self._conflicts[link_id])

    def _build_weight_matrix(self) -> np.ndarray:
        n = self.num_links
        matrix = np.zeros((n, n), dtype=float)
        for e in range(n):
            matrix[e, e] = 1.0
            for e_prime in self._conflicts[e]:
                if self._rank[e_prime] <= self._rank[e]:
                    matrix[e, e_prime] = 1.0
        return matrix

    def adjacency_matrix(self) -> np.ndarray:
        """The symmetric boolean conflict adjacency (cached, read-only)."""
        if self._adjacency_cache is None:
            n = self.num_links
            adjacency = np.zeros((n, n), dtype=bool)
            for e, neighbours in self._conflicts.items():
                for e_prime in neighbours:
                    adjacency[e, e_prime] = True
            adjacency.setflags(write=False)
            self._adjacency_cache = adjacency
        return self._adjacency_cache

    def successes(self, transmitting: Sequence[int]) -> Set[int]:
        attempted = self._check_no_duplicates(transmitting)
        return {
            e for e in attempted if not (self._conflicts[e] & attempted)
        }

    def batch_evaluator(self, busy: np.ndarray) -> _ConflictBatchEvaluator:
        return _ConflictBatchEvaluator(self, busy)

    def is_independent(self, links: Iterable[int]) -> bool:
        """Whether the given links form an independent (conflict-free) set."""
        links = set(links)
        return all(not (self._conflicts[e] & links - {e}) for e in links)


__all__ = ["ConflictGraphModel", "ConflictMap"]
