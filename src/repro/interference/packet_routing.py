"""Packet-routing networks as an interference model (paper Sections 2 & 7).

Setting ``W`` to the identity matrix recovers classical store-and-forward
packet routing: the interference measure of a request set is its
*congestion* (max packets per link), and simultaneous transmissions on
distinct links never collide. The one-packet-per-link-per-slot rule is
enforced by the schedulers, so every attempted transmission succeeds.

With the trivial single-hop algorithm (one slot per packet per link,
``f(n) = 1``) the paper's transformation yields stable protocols for all
injection rates ``lambda < 1`` — the adversarial-queueing baseline of
Borodin et al. / Andrews et al. recovered inside this framework.
"""

from __future__ import annotations

from typing import Sequence, Set

import numpy as np

from repro.interference.base import BatchSuccessEvaluator, InterferenceModel
from repro.network.network import Network


class _PassThroughBatchEvaluator(BatchSuccessEvaluator):
    """Every attempted transmission succeeds (independent links)."""

    def __init__(self, busy: np.ndarray):
        super().__init__(busy)
        # A slice of one read-only buffer costs less than a fresh array.
        self._ones = np.ones(len(busy), dtype=bool)
        self._ones.setflags(write=False)

    def successes_local(self, att_idx: np.ndarray) -> np.ndarray:
        return self._ones[:att_idx.size]


class PacketRoutingModel(InterferenceModel):
    """Identity ``W``: links are independent, the measure is congestion."""

    def __init__(self, network: Network):
        super().__init__(network)

    def _build_weight_matrix(self) -> np.ndarray:
        return np.eye(self.num_links, dtype=float)

    def successes(self, transmitting: Sequence[int]) -> Set[int]:
        return self._check_no_duplicates(transmitting)

    def batch_evaluator(self, busy: np.ndarray) -> _PassThroughBatchEvaluator:
        return _PassThroughBatchEvaluator(busy)


__all__ = ["PacketRoutingModel"]
