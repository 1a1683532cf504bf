"""The multiple-access channel (paper Section 7.1).

All links share one channel: a transmission is received iff it is the
only one in its slot. The impact matrix is all-ones, so the interference
measure of a request set is simply its total number of packets — the
paper's observation that MAC is the ``W = 1`` special case of the linear
measure.
"""

from __future__ import annotations

from typing import Sequence, Set

import numpy as np

from repro.interference.base import BatchSuccessEvaluator, InterferenceModel
from repro.network.network import Network


class _MacBatchEvaluator(BatchSuccessEvaluator):
    """Singleton test on the transmitter count; nothing to cache or shrink."""

    def successes_local(self, att_idx: np.ndarray) -> np.ndarray:
        return np.full(att_idx.size, att_idx.size == 1)


class MultipleAccessChannel(InterferenceModel):
    """Single shared channel: success iff exactly one link transmits."""

    def __init__(self, network: Network):
        super().__init__(network)

    def _build_weight_matrix(self) -> np.ndarray:
        return np.ones((self.num_links, self.num_links), dtype=float)

    def successes(self, transmitting: Sequence[int]) -> Set[int]:
        attempted = self._check_no_duplicates(transmitting)
        if len(attempted) == 1:
            return set(attempted)
        return set()

    def batch_evaluator(self, busy: np.ndarray) -> _MacBatchEvaluator:
        return _MacBatchEvaluator(busy)


__all__ = ["MultipleAccessChannel"]
