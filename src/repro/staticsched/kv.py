"""Acknowledgement-based distributed contention resolution.

Reference [33] of the paper (Kesselheim & Voecking, "Distributed
contention resolution in wireless networks", DISC 2010) schedules ``n``
requests in ``O(A-bar * log n)`` slots whp, where ``A-bar`` is the
maximum average affectance — the algorithm behind Corollary 13
(monotone sub-linear power assignments, ``O(log^2 m)``-competitive
after transformation).

Mechanism reproduced here (the DISC'10 core loop): every pending
request maintains a personal transmission probability, starting at a
common low value. In each slot it transmits with its current
probability; on a *successful* transmission it leaves the system, and
— the distinctive ingredient — each request adapts multiplicatively
based only on its own acknowledgement feedback: unsuccessful attempts
halve the probability (back-off), long quiet stretches double it up to
the cap. This needs no knowledge of the measure, only of ``n`` (for the
initial probability and the budget), matching the distributed,
ack-based feedback model the paper requires of transformable
algorithms (Section 8).
"""

from __future__ import annotations

import math

from repro.errors import SchedulingError
from repro.staticsched.runloop import FusedScheduler, KvPolicy
from repro.utils.validation import check_positive


class KvScheduler(FusedScheduler):
    """Ack-feedback contention resolution with multiplicative adaptation.

    Parameters
    ----------
    initial_probability:
        Starting per-request transmission probability (default 1/8).
    min_probability:
        Back-off floor, at most ``initial_probability``.
    backoff:
        Multiplier applied after a failed attempt (default 1/2).
    recovery_slots:
        A request idle (not attempting) for this many consecutive slots
        doubles its probability, up to ``initial_probability``. An
        integer >= 1; anything else raises :class:`SchedulingError`.
    budget_scale:
        Factor on the ``O(I log n)`` budget recommendation.
    """

    name = "kv"

    def __init__(
        self,
        initial_probability: float = 0.125,
        min_probability: float = 1e-4,
        backoff: float = 0.5,
        recovery_slots: int = 8,
        budget_scale: float = 24.0,
    ):
        if not 0 < initial_probability <= 1:
            raise SchedulingError(
                f"initial_probability must be in (0, 1], got {initial_probability}"
            )
        if not 0 < backoff < 1:
            raise SchedulingError(f"backoff must be in (0, 1), got {backoff}")
        try:
            integral = int(recovery_slots) == recovery_slots
        except (TypeError, ValueError, OverflowError):
            integral = False
        if isinstance(recovery_slots, bool) or not integral or (
            recovery_slots < 1
        ):
            raise SchedulingError(
                f"recovery_slots must be an integer >= 1, got {recovery_slots!r}"
            )
        self._p0 = initial_probability
        self._p_min = check_positive("min_probability", min_probability)
        if self._p_min > initial_probability:
            raise SchedulingError(
                f"min_probability ({min_probability}) must not exceed "
                f"initial_probability ({initial_probability})"
            )
        self._backoff = backoff
        self._recovery_slots = int(recovery_slots)
        self._budget_scale = check_positive("budget_scale", budget_scale)

    def state_dict(self):
        return {
            "name": self.name,
            "initial_probability": self._p0,
            "min_probability": self._p_min,
            "backoff": self._backoff,
            "recovery_slots": self._recovery_slots,
            "budget_scale": self._budget_scale,
        }

    def budget_for(self, measure: float, n: int) -> int:
        """``O(I log n)`` with the adaptation's slack constant."""
        measure = max(measure, 1.0)
        return max(
            1, math.ceil(self._budget_scale * measure * math.log(n + 2))
        )

    def fused_policy(self) -> KvPolicy:
        return KvPolicy(
            self._p0, self._p_min, self._backoff, self._recovery_slots
        )


__all__ = ["KvScheduler"]
