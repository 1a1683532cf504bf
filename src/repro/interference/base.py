"""The :class:`InterferenceModel` abstract base class.

An interference model couples a network with

1. an impact matrix ``W`` defining the linear interference measure
   ``I(R) = ||W . R||_inf`` of a request vector ``R`` (paper Section 2), and
2. a *success predicate*: given the set of links transmitting in a slot,
   which of those transmissions are received.

Conventions (fixed across the library):

* ``W[e, e']`` is the impact **on** link ``e`` **from** link ``e'``;
  ``W[e, e] = 1`` (the paper's normalisation).
* Request vectors ``R`` are float arrays indexed by link id; entries are
  multiplicities (a path visiting a link twice contributes 2).
* ``successes`` receives link ids with *set semantics*: each listed link
  makes one transmission attempt in the slot. Schedulers are responsible
  for never scheduling two packets on one link in the same slot (the
  paper's "via each communication link at most one packet may be
  transmitted per time step").

Batch evaluation
----------------
The scalar :meth:`InterferenceModel.successes` is the *reference*
semantics; the fused slot loop (:mod:`repro.staticsched.runloop`) drives
the hot loop through two batch entry points instead:

* :meth:`InterferenceModel.successes_mask` — boolean mask in, boolean
  mask out; one call per slot, no Python-level set churn. The base
  implementation delegates to ``successes`` so every model supports it;
  vectorised models override it.
* :meth:`InterferenceModel.batch_evaluator` — returns a
  :class:`BatchSuccessEvaluator` bound to a run's (shrinking) busy set.
  Evaluators may cache active-set submatrices across slots and update
  them incrementally as links drain, which is where the large constant
  factors go away.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterable, Optional, Sequence, Set, Union

import numpy as np

from repro.errors import ConfigurationError, SchedulingError
from repro.network.network import Network

RequestsLike = Union[np.ndarray, Sequence[int]]


class BatchSuccessEvaluator:
    """Per-run batch success evaluation bound to a fixed busy-link set.

    ``busy`` is a sorted array of link ids with pending work; all masks
    exchanged with the evaluator are *local* (aligned with ``busy``).
    As links drain, the run loop calls :meth:`drop` with a local keep
    mask; evaluators shrink their cached state in place instead of
    re-deriving it from the full ``W`` every slot.
    """

    #: Optional shortcut for a slot with one transmitter: a method
    #: mapping its local index (a one-element array) to its verdict, a
    #: one-element bool array equal to ``successes_local(mask).take``
    #: of that index. ``None`` when the evaluator has none.
    lone = None

    def __init__(self, busy: np.ndarray):
        self._busy = np.asarray(busy, dtype=np.int64)

    @property
    def busy(self) -> np.ndarray:
        """The current busy-link ids (sorted ascending)."""
        return self._busy

    def successes_local(self, transmit_local: np.ndarray) -> np.ndarray:
        """Local success mask for a local transmit mask (one slot)."""
        raise NotImplementedError

    def drop(self, keep_local: np.ndarray) -> None:
        """Shrink to the kept busy links (links whose queues drained)."""
        self._busy = self._busy[keep_local]


class CachedBatchEvaluator(BatchSuccessEvaluator):
    """Base for evaluators that slice model state to the busy set once.

    Subclasses gather their caches (submatrices, gain tables) over the
    *initial* busy set and never copy them again; :attr:`_cols` maps
    current local indices into those frozen caches, so draining links
    costs O(survivors) instead of an O(busy^2) re-slice.
    """

    def __init__(self, busy: np.ndarray):
        super().__init__(busy)
        self._cols = np.arange(len(busy))

    def drop(self, keep_local: np.ndarray) -> None:
        self._cols = self._cols[keep_local]
        super().drop(keep_local)


class ScalarBatchEvaluator(BatchSuccessEvaluator):
    """Reference evaluator: one scalar ``successes()`` call per slot.

    This is the ground-truth path the vectorised evaluators are verified
    against (see ``repro.staticsched.scalar_reference``).
    """

    def __init__(self, model: "InterferenceModel", busy: np.ndarray):
        super().__init__(busy)
        self._model = model

    def successes_local(self, transmit_local: np.ndarray) -> np.ndarray:
        ids = self._busy[transmit_local]
        winners = self._model.successes([int(e) for e in ids])
        mask = np.zeros(self._busy.size, dtype=bool)
        if winners:
            winner_ids = np.fromiter(sorted(winners), dtype=np.int64)
            mask[np.searchsorted(self._busy, winner_ids)] = True
        return mask


class MaskBatchEvaluator(BatchSuccessEvaluator):
    """Default evaluator: routes each slot through ``successes_mask``.

    Used by models that vectorise the per-slot predicate but keep no
    cross-slot cache.
    """

    def __init__(self, model: "InterferenceModel", busy: np.ndarray):
        super().__init__(busy)
        self._model = model

    def successes_local(self, transmit_local: np.ndarray) -> np.ndarray:
        active = np.zeros(self._model.num_links, dtype=bool)
        active[self._busy[transmit_local]] = True
        return self._model.successes_mask(active)[self._busy]


def request_vector(num_links: int, link_ids: Iterable[int]) -> np.ndarray:
    """Build a request vector from link ids (multiplicities respected)."""
    vector = np.zeros(num_links, dtype=float)
    for link_id in link_ids:
        if not 0 <= link_id < num_links:
            raise SchedulingError(
                f"request references link id {link_id}, outside 0..{num_links - 1}"
            )
        vector[link_id] += 1.0
    return vector


class InterferenceModel(ABC):
    """Couples a network with an impact matrix and a success predicate."""

    def __init__(self, network: Network):
        self._network = network
        self._weight_cache: Optional[np.ndarray] = None
        self._columns_cache: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------

    @property
    def network(self) -> Network:
        """The underlying network."""
        return self._network

    @property
    def num_links(self) -> int:
        """Number of links (dimension of ``W`` and of request vectors)."""
        return self._network.num_links

    # ------------------------------------------------------------------
    # The linear measure
    # ------------------------------------------------------------------

    @abstractmethod
    def _build_weight_matrix(self) -> np.ndarray:
        """Construct ``W``; called once, result cached."""

    def weight_matrix(self) -> np.ndarray:
        """The impact matrix ``W`` (cached; treat as read-only)."""
        if self._weight_cache is None:
            matrix = np.asarray(self._build_weight_matrix(), dtype=float)
            expected = (self.num_links, self.num_links)
            if matrix.shape != expected:
                raise ConfigurationError(
                    f"weight matrix has shape {matrix.shape}, expected {expected}"
                )
            if (matrix < 0).any() or (matrix > 1).any():
                raise ConfigurationError("weight matrix entries must lie in [0, 1]")
            if not np.allclose(np.diag(matrix), 1.0):
                raise ConfigurationError("weight matrix diagonal must be 1")
            matrix.setflags(write=False)
            self._weight_cache = matrix
        return self._weight_cache

    def weight_columns(self) -> np.ndarray:
        """``Wᵀ`` as a C-contiguous array (cached; read-only).

        Row ``e'`` holds column ``e'`` of :meth:`weight_matrix`, the
        impact of ``e'`` on every link, so a set of columns gathers as
        contiguous rows. Built on first use, once per model: decay's
        measure estimate reads it (one ``num_links``-square float
        array more per model that runs decay on the numpy backend).
        """
        if self._columns_cache is None:
            columns = np.ascontiguousarray(self.weight_matrix().T)
            columns.setflags(write=False)
            self._columns_cache = columns
        return self._columns_cache

    def weight(self, e: int, e_prime: int) -> float:
        """``W[e, e']`` — impact on ``e`` from ``e'``."""
        return float(self.weight_matrix()[e, e_prime])

    def as_request_vector(self, requests: RequestsLike) -> np.ndarray:
        """Normalise ``requests`` (vector or link-id list) to a vector."""
        if isinstance(requests, np.ndarray) and requests.dtype != object:
            if requests.shape != (self.num_links,):
                raise SchedulingError(
                    f"request vector has shape {requests.shape}, expected "
                    f"({self.num_links},)"
                )
            return requests.astype(float, copy=False)
        return request_vector(self.num_links, requests)

    def interference_measure(self, requests: RequestsLike) -> float:
        """``I = ||W . R||_inf`` for the given requests.

        The plain infinity norm over *all* rows, exactly as in the
        paper's Section 2 (``I := max_e sum_e' W[e, e'] R(e')``). Taking
        all rows (not just requested links') keeps the measure monotone
        *and sub-additive* in ``R`` — properties both the transformation
        analysis and the window-adversary budget arithmetic rely on.
        """
        vector = self.as_request_vector(requests)
        if vector.sum() == 0:
            return 0.0
        return float((self.weight_matrix() @ vector).max())

    def injection_norm(self, average_rates: RequestsLike) -> float:
        """``||W . F||_inf`` — the paper's injection rate of a mean-usage vector.

        Numerically the same norm as :meth:`interference_measure`; kept
        as a separate entry point because the argument is a *rate*
        (packets per slot in expectation), not a packet count.
        """
        vector = self.as_request_vector(average_rates)
        return float((self.weight_matrix() @ vector).max()) if vector.size else 0.0

    # ------------------------------------------------------------------
    # Ground truth
    # ------------------------------------------------------------------

    @abstractmethod
    def successes(self, transmitting: Sequence[int]) -> Set[int]:
        """Which of the simultaneously transmitting links are received.

        ``transmitting`` must not contain duplicates (one transmission
        per link per slot).
        """

    def successes_mask(self, active: np.ndarray) -> np.ndarray:
        """Batch form of :meth:`successes`: bool mask in, bool mask out.

        ``active[e]`` says whether link ``e`` transmits this slot; the
        result marks the links whose transmissions are received (always
        a subset of ``active``). The boolean encoding makes duplicate
        transmissions unrepresentable, so no duplicate check is needed.

        The base implementation delegates to the scalar reference;
        vectorised models override it with pure array arithmetic.
        """
        active = self._as_active_mask(active)
        winners = self.successes([int(e) for e in np.flatnonzero(active)])
        mask = np.zeros(self.num_links, dtype=bool)
        if winners:
            mask[np.fromiter(winners, dtype=np.int64)] = True
        return mask

    def batch_evaluator(self, busy: np.ndarray) -> BatchSuccessEvaluator:
        """A per-run evaluator bound to the sorted busy-link ids ``busy``.

        Models with cacheable structure (submatrices of ``W``, gain
        tables...) override this to return evaluators that slice their
        cache once per run and update it incrementally via
        :meth:`BatchSuccessEvaluator.drop` as links drain.
        """
        return MaskBatchEvaluator(self, busy)

    def singleton_succeeds(self, link_id: int) -> bool:
        """Whether a lone transmission on ``link_id`` is received."""
        return link_id in self.successes([link_id])

    def check_all_singletons(self) -> None:
        """Raise if some link cannot even transmit alone.

        Protocols assume every link is individually usable; models built
        from bad geometry (e.g. SINR with too much noise) can violate
        this, and it is better to fail loudly at setup.
        """
        for link in range(self.num_links):
            if not self.singleton_succeeds(link):
                raise ConfigurationError(
                    f"link {link} cannot succeed even transmitting alone"
                )

    def feasible_set(self, transmitting: Sequence[int]) -> bool:
        """Whether *all* the given links succeed simultaneously."""
        attempted = set(transmitting)
        return self.successes(transmitting) == attempted

    def _as_active_mask(self, active: np.ndarray) -> np.ndarray:
        active = np.asarray(active, dtype=bool)
        if active.shape != (self.num_links,):
            raise SchedulingError(
                f"active mask has shape {active.shape}, expected "
                f"({self.num_links},)"
            )
        return active

    def _check_no_duplicates(self, transmitting: Sequence[int]) -> Set[int]:
        attempted = set(transmitting)
        if len(attempted) != len(list(transmitting)):
            raise SchedulingError(
                "duplicate link ids in one slot: a link transmits at most one "
                "packet per time step"
            )
        return attempted


__all__ = [
    "InterferenceModel",
    "request_vector",
    "RequestsLike",
    "BatchSuccessEvaluator",
    "CachedBatchEvaluator",
    "ScalarBatchEvaluator",
    "MaskBatchEvaluator",
]
