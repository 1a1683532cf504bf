"""Interference models defined directly by an explicit matrix.

Two flavours:

* :class:`ExplicitMatrixModel` — the caller supplies both ``W`` and a
  success predicate. Escape hatch for custom models (the Theorem-20
  lower-bound instance uses it).
* :class:`AffectanceThresholdModel` — the caller supplies ``W`` and
  success is the *affectance criterion*: a transmission on ``e`` within
  set ``S`` is received iff the accumulated impact
  ``sum_{e' in S, e' != e} W[e, e']`` stays below a threshold (default 1).
  This is exactly how affectance interacts with SINR feasibility (a link
  meets its SINR constraint iff the affectances of the other active
  links sum to at most 1), so the class doubles as a fast approximate
  SINR model and as the natural semantics for abstract ``W`` benchmarks.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Set

import numpy as np

from repro.errors import ConfigurationError
from repro.interference.base import InterferenceModel, SubmatrixBatchEvaluator
from repro.network.network import Network

SuccessPredicate = Callable[[Sequence[int]], Set[int]]


class _AffectanceBatchEvaluator(SubmatrixBatchEvaluator):
    """Affectance criterion on a cached busy-set submatrix of ``W``.

    A slot row-sums its transmitter block with the same pairwise
    reduction the scalar reference uses (identical contents, identical
    routine, hence identical bits: no guard band needed).
    ``_row_sums`` (total impact on each busy link from all busy links)
    is maintained incrementally, departing links' columns subtracted,
    giving an O(busy) fast path for slots where every busy link
    transmits.
    """

    def __init__(self, model: "AffectanceThresholdModel", busy: np.ndarray):
        super().__init__(busy, model.weight_matrix()[np.ix_(busy, busy)])
        self._threshold = model.threshold
        self._row_sums = self._sub.sum(axis=1)
        self._diag = self._sub.diagonal().copy()
        self._imp_pool = np.empty(busy.size)
        self._ok_pool = np.empty(busy.size, dtype=bool)

    def successes_local(self, att_idx: np.ndarray) -> np.ndarray:
        t = att_idx.size
        threshold = self._threshold
        if t == self._cols.size:
            # Every busy link transmits: impact is the maintained row
            # sum minus the stored diagonal (W's diagonal is validated
            # to ~1 but not exactly 1). O(busy) per slot. The
            # incrementally maintained sums can drift from a fresh
            # evaluation by accumulated ulps (bounded well below 1e-9
            # for W entries in [0, 1] at any feasible busy size), so
            # links landing inside that guard band of the threshold are
            # re-summed exactly in the scalar reduction order — the
            # fast path stays O(busy) in the generic slot and the
            # bit-for-bit parity contract holds even at boundaries.
            impact = self._row_sums - self._diag
            ok = impact <= threshold
            borderline = np.abs(impact - threshold) < 1e-9
            if borderline.any():
                rows = self._cols[borderline]
                exact = (
                    self._sub[rows[:, None], self._cols].sum(axis=1)
                    - self._diag[borderline]
                )
                ok[borderline] = exact <= threshold
            return ok
        block = self._block(att_idx)
        # C-contiguous (t, t) row sums: the same pairwise reduction, on
        # the same values, as the scalar reference's
        # `W[ix_(ids, ids)].sum(axis=1)`.
        impact = np.add.reduce(block, axis=1, out=self._imp_pool[:t])
        np.subtract(impact, block.diagonal(), out=impact)
        return np.less_equal(impact, threshold, out=self._ok_pool[:t])

    def drop(self, keep_local: np.ndarray) -> None:
        gone = self._cols[~keep_local]
        kept = self._cols[keep_local]
        self._row_sums = (
            self._row_sums[keep_local]
            - self._sub[kept[:, None], gone].sum(axis=1)
        )
        self._diag = self._diag[keep_local]
        super().drop(keep_local)


class ExplicitMatrixModel(InterferenceModel):
    """A model given by an explicit ``W`` and an explicit success predicate."""

    def __init__(
        self,
        network: Network,
        weight_matrix: np.ndarray,
        success_predicate: SuccessPredicate,
    ):
        super().__init__(network)
        self._matrix = np.asarray(weight_matrix, dtype=float)
        self._predicate = success_predicate

    def _build_weight_matrix(self) -> np.ndarray:
        return self._matrix

    def successes(self, transmitting: Sequence[int]) -> Set[int]:
        attempted = self._check_no_duplicates(transmitting)
        result = set(self._predicate(sorted(attempted)))
        if not result <= attempted:
            raise ConfigurationError(
                "success predicate returned links that were not transmitting"
            )
        return result


class AffectanceThresholdModel(InterferenceModel):
    """Success iff accumulated impact from the other active links <= threshold.

    Parameters
    ----------
    network:
        The underlying network.
    weight_matrix:
        The impact matrix ``W``.
    threshold:
        Maximum tolerable accumulated impact (exclusive bound is *not*
        used: success requires ``impact <= threshold``). The affectance
        normalisation of the SINR literature makes 1.0 the natural
        default.
    """

    def __init__(
        self,
        network: Network,
        weight_matrix: np.ndarray,
        threshold: float = 1.0,
    ):
        super().__init__(network)
        if threshold <= 0:
            raise ConfigurationError(f"threshold must be positive, got {threshold}")
        self._matrix = np.asarray(weight_matrix, dtype=float)
        self._threshold = float(threshold)

    @property
    def threshold(self) -> float:
        """The accumulated-impact success threshold."""
        return self._threshold

    def _build_weight_matrix(self) -> np.ndarray:
        return self._matrix

    def successes(self, transmitting: Sequence[int]) -> Set[int]:
        attempted = self._check_no_duplicates(transmitting)
        if not attempted:
            return set()
        # Ascending ids: a row sum's rounding depends on its order, and
        # a set's iteration order is not ascending in general.
        ids = np.fromiter(sorted(attempted), dtype=int)
        sub = self.weight_matrix()[np.ix_(ids, ids)]
        # Row sums minus the diagonal = impact from the *other* active links.
        impact = sub.sum(axis=1) - np.diag(sub)
        return {int(e) for e, a in zip(ids, impact) if a <= self._threshold}

    def batch_evaluator(self, busy: np.ndarray) -> _AffectanceBatchEvaluator:
        return _AffectanceBatchEvaluator(self, busy)


__all__ = ["ExplicitMatrixModel", "AffectanceThresholdModel"]
