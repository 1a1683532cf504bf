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
semantics. The fused slot loop (:mod:`repro.staticsched.runloop`)
evaluates slots through one interface instead:
:meth:`InterferenceModel.batch_evaluator` returns a
:class:`BatchSuccessEvaluator` bound to a run's (shrinking) busy set,
whose :meth:`~BatchSuccessEvaluator.successes_local` maps a slot's
ascending local transmitter indices to one verdict each. Evaluators
may cache active-set submatrices across slots and update them
incrementally as links drain, which is where the large constant
factors go away. The default evaluator routes each slot through
:meth:`InterferenceModel.successes_mask` (bool mask in, bool mask
out), which delegates to ``successes``; the scalar reference uses
:class:`ScalarBatchEvaluator`, one ``successes()`` call per slot.
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

    ``busy`` is a sorted array of link ids with pending work; a slot's
    transmitters are given as *local* indices into it. As links drain,
    the run loop calls :meth:`drop` with a local keep mask; evaluators
    shrink their cached state in place instead of re-deriving it from
    the full ``W`` every slot.
    """

    def __init__(self, busy: np.ndarray):
        self._busy = np.asarray(busy, dtype=np.int64)

    @property
    def busy(self) -> np.ndarray:
        """The current busy-link ids (sorted ascending)."""
        return self._busy

    def successes_local(self, att_idx: np.ndarray) -> np.ndarray:
        """One slot's verdicts: which transmitters are received.

        ``att_idx`` holds the transmitters' local indices, ascending
        and non-empty; the result is a bool array aligned with it (it
        may be a reusable buffer, valid until the next call). Equal to
        ``successes()`` on ``busy[att_idx]``, and drawing the same
        randomness in the same order.
        """
        raise NotImplementedError

    def drop(self, keep_local: np.ndarray) -> None:
        """Shrink to the kept busy links (links whose queues drained)."""
        self._busy = self._busy[keep_local]


class CachedBatchEvaluator(BatchSuccessEvaluator):
    """Base for evaluators that slice model state to the busy set once.

    Subclasses gather their caches (submatrices, gain tables) over the
    *initial* busy set ``_initial`` and never copy them again;
    :attr:`_cols` maps current local indices into those frozen caches,
    so draining links costs one O(survivors) compaction of it.
    """

    def __init__(self, busy: np.ndarray):
        super().__init__(busy)
        self._initial = self._busy
        self._cols = np.arange(len(busy))

    @property
    def busy(self) -> np.ndarray:
        return self._initial.take(self._cols)

    def drop(self, keep_local: np.ndarray) -> None:
        self._cols = self._cols[keep_local]


class SubmatrixBatchEvaluator(CachedBatchEvaluator):
    """Cached evaluator over a frozen busy-set submatrix ``sub``.

    :meth:`_block` gathers one slot's transmitter submatrix with one
    flat ``take`` into a reused C-contiguous ``(t, t)`` buffer.
    """

    def __init__(self, busy: np.ndarray, sub: np.ndarray):
        super().__init__(busy)
        self._sub = sub
        self._flat = sub.reshape(-1)
        self._stride = len(busy)
        # Until the first drop, local indices are cache indices.
        self._compacted = False
        # Scratch pools sized to the transmitter count actually seen;
        # the row-base pool is separate from the 2-D index pool so the
        # broadcast add never reads through its own output.
        self._row_pool = np.empty(len(busy), dtype=np.int64)
        self._idx_pool = np.empty(0, dtype=np.int64)
        self._val_pool = np.empty(0, dtype=sub.dtype)

    def _block(self, att_idx: np.ndarray) -> np.ndarray:
        """``sub`` restricted to the transmitters (valid until the next
        call)."""
        t = att_idx.size
        t_idx = self._cols.take(att_idx) if self._compacted else att_idx
        if self._idx_pool.size < t * t:
            self._idx_pool = np.empty(t * t * 2, dtype=np.int64)
            self._val_pool = np.empty(t * t * 2, dtype=self._flat.dtype)
        idx2d = self._idx_pool[:t * t].reshape(t, t)
        val2d = self._val_pool[:t * t].reshape(t, t)
        rows = np.multiply(t_idx, self._stride, out=self._row_pool[:t])
        np.add(rows.reshape(t, 1), t_idx, out=idx2d)
        # Indices are in range by construction, so the bounds mode is free.
        self._flat.take(idx2d, out=val2d, mode="clip")
        return val2d

    def drop(self, keep_local: np.ndarray) -> None:
        self._compacted = True
        super().drop(keep_local)


class ScalarBatchEvaluator(BatchSuccessEvaluator):
    """Reference evaluator: one scalar ``successes()`` call per slot.

    This is the ground-truth path the vectorised evaluators are verified
    against (see ``repro.staticsched.scalar_reference``).
    """

    def __init__(self, model: "InterferenceModel", busy: np.ndarray):
        super().__init__(busy)
        self._model = model

    def successes_local(self, att_idx: np.ndarray) -> np.ndarray:
        ids = self._busy.take(att_idx).tolist()
        winners = self._model.successes(ids)
        return np.fromiter(
            (e in winners for e in ids), dtype=bool, count=len(ids)
        )


class MaskBatchEvaluator(BatchSuccessEvaluator):
    """Default evaluator: routes each slot through ``successes_mask``.

    Used by models that keep no cross-slot cache.
    """

    def __init__(self, model: "InterferenceModel", busy: np.ndarray):
        super().__init__(busy)
        self._model = model

    def successes_local(self, att_idx: np.ndarray) -> np.ndarray:
        ids = self._busy.take(att_idx)
        active = np.zeros(self._model.num_links, dtype=bool)
        active[ids] = True
        return self._model.successes_mask(active).take(ids)


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
        Delegates to the scalar reference (which it therefore matches,
        randomness included); the default :meth:`batch_evaluator` calls
        it once per slot.
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
    "SubmatrixBatchEvaluator",
    "ScalarBatchEvaluator",
    "MaskBatchEvaluator",
]
