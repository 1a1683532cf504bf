"""The stability potential of the Theorem-3 analysis.

``Phi`` = total number of remaining hops over all *failed* packets. It
upper-bounds the failed-buffer sizes, increases when phase-1 executions
fail packets (Lemma 4 bounds the increase's tail), and decreases by one
whenever a clean-up transmission succeeds (Lemma 6 gives the ``1/(2em)``
success floor). The tracker mirrors that bookkeeping so experiments can
plot the very quantity the proof argues about and tests can assert the
drift is negative below capacity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.errors import SchedulingError


@dataclass
class PotentialTracker:
    """Tracks ``Phi`` and records one sample per frame."""

    value: int = 0
    series: List[int] = field(default_factory=list)
    total_failures: int = 0
    total_cleanup_hops: int = 0

    def on_failures(self, total_remaining: int, count: int) -> None:
        """``count`` packets just failed: their remaining hops enter the
        potential.

        The caller has already verified every failed packet has
        remaining hops; ``total_remaining`` is their sum.
        """
        self.value += int(total_remaining)
        self.total_failures += int(count)

    def on_cleanup_hop(self) -> None:
        """A clean-up transmission succeeded: one hop leaves the potential."""
        if self.value <= 0:
            raise SchedulingError("potential under-flow: cleanup hop at Phi=0")
        self.value -= 1
        self.total_cleanup_hops += 1

    def sample(self) -> None:
        """Record the end-of-frame value."""
        self.series.append(self.value)

    def state_dict(self) -> dict:
        return {
            "value": self.value,
            "series": list(self.series),
            "total_failures": self.total_failures,
            "total_cleanup_hops": self.total_cleanup_hops,
        }

    def load_state_dict(self, state: dict) -> None:
        from repro.errors import ConfigurationError

        try:
            self.value = int(state["value"])
            self.series = [int(v) for v in state["series"]]
            self.total_failures = int(state["total_failures"])
            self.total_cleanup_hops = int(state["total_cleanup_hops"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(f"invalid potential state: {exc}") from exc

    def drift_estimate(self, window: int = 50) -> float:
        """Mean per-frame change over the last ``window`` samples."""
        if len(self.series) < 2:
            return 0.0
        tail = self.series[-window:]
        if len(tail) < 2:
            return 0.0
        return (tail[-1] - tail[0]) / (len(tail) - 1)


__all__ = ["PotentialTracker"]
