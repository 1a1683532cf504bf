"""The trivial packet-routing scheduler.

In a packet-routing network (``W`` = identity,
:class:`~repro.interference.packet_routing.PacketRoutingModel`) links
never interfere, so the obvious schedule is optimal: every slot, every
link with a backlog forwards one packet. The schedule length equals the
congestion — which *is* the interference measure under the identity
matrix — giving the exact bound ``f = 1``, ``g = 0``.

Plugged into the dynamic transformation this recovers the classical
adversarial-queueing guarantee (stable for every ``lambda < 1``), the
paper's Section-7 sanity check that the framework collapses to known
results in the degenerate model.
"""

from __future__ import annotations

import math

from repro.staticsched.base import LengthBound
from repro.staticsched.runloop import FusedScheduler, SingleHopPolicy


class SingleHopScheduler(FusedScheduler):
    """Forward one packet per busy link per slot; exact length = congestion."""

    name = "single-hop"

    def budget_for(self, measure: float, n: int) -> int:
        """The congestion itself (measure rounded up), at least 1."""
        return max(1, math.ceil(measure))

    def network_bound(self, m: int) -> LengthBound:
        """Exact: ``f = 1``, ``g = 0`` (represented with a 1-slot floor)."""
        return LengthBound(
            multiplicative=lambda m_: 1.0,
            additive=lambda m_, n: 1.0,
            description="I exact [trivial single-hop]",
        )

    def fused_policy(self) -> SingleHopPolicy:
        return SingleHopPolicy()


__all__ = ["SingleHopScheduler"]
