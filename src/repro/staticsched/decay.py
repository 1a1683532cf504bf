"""The random ``1/(4I)``-transmission algorithm (paper Theorem 19).

Every pending packet attempts transmission independently with
probability ``1/(4 I)`` in each slot, where ``I`` is the interference
measure of the *initial* request set (the algorithm is non-adaptive, as
in the paper). When several packets on one link decide to transmit in
the same slot, the link carries its FIFO head — the others' attempts
fold into that single transmission (the paper's one-packet-per-link
rule).

Theorem 19 shows the expected number of unserved packets drops by the
factor ``(1 - 1/(8I))`` per slot, so ``O(I log n)`` slots suffice with
high probability — for *any* interference model whose success predicate
the measure dominates (conflict graphs, affectance-threshold SINR, the
multiple-access channel with ``I = n``...).

This is the canonical ``f(n) = O(log n)``-factor algorithm the
Section-3 transformation is designed to repair, and doubles as the
work-horse base algorithm in most experiments.
"""

from __future__ import annotations

import math

from repro.staticsched.runloop import DecayPolicy, FusedScheduler
from repro.utils.validation import check_positive


class DecayScheduler(FusedScheduler):
    """Non-adaptive random transmission with probability ``1/(4 I)``.

    Parameters
    ----------
    probability_scale:
        The constant ``c`` in the per-slot probability ``1/(c * I)``;
        the paper uses 4.
    budget_scale:
        Constant factor on the ``I * log n`` budget recommendation.
    measure_floor:
        Lower clamp on the measure used in the probability (an
        instance with ``I < 1`` still transmits with probability at
        most ``1/c``).
    """

    name = "decay"

    def __init__(
        self,
        probability_scale: float = 4.0,
        budget_scale: float = 8.0,
        measure_floor: float = 1.0,
    ):
        self._probability_scale = check_positive(
            "probability_scale", probability_scale
        )
        self._budget_scale = check_positive("budget_scale", budget_scale)
        self._measure_floor = check_positive("measure_floor", measure_floor)

    def state_dict(self):
        return {
            "name": self.name,
            "probability_scale": self._probability_scale,
            "budget_scale": self._budget_scale,
            "measure_floor": self._measure_floor,
        }

    def budget_for(self, measure: float, n: int) -> int:
        """``O(I log n)`` slots: ``budget_scale * c * max(I, 1) * ln(n + 2)``."""
        measure = max(measure, self._measure_floor)
        return max(
            1,
            math.ceil(
                self._budget_scale
                * self._probability_scale
                * measure
                * math.log(n + 2)
            ),
        )

    def fused_policy(self) -> DecayPolicy:
        return DecayPolicy(self._probability_scale, self._measure_floor)


__all__ = ["DecayScheduler"]
