"""Packet injection: the paper's two arrival models (Section 2.1).

* **Stochastic** — a finite set of generators; in every slot each
  generator independently injects at most one packet, with a
  time-invariant distribution over paths. The injection rate is
  ``lambda = ||W . F||_inf`` for the mean per-slot path-usage vector
  ``F``.
* **Adversarial** — a ``(w, lambda)``-bounded window adversary: in any
  window of ``w`` consecutive slots, the interference measure of
  everything injected is at most ``w * lambda``.

Both allocate packets, each carrying a fixed link path, into a
:class:`~repro.injection.store.PacketStore`.
:class:`~repro.injection.adversarial.WindowAudit` verifies the window
constraint of any adversary empirically — used both
in tests and to certify hand-written adversaries before experiments.

Beyond the paper, :mod:`repro.injection.markov` adds bursty-but-
stationary processes (Markov-modulated ON/OFF gating, Poisson batch
arrivals) that each relax exactly one property of the stochastic model
— controlled stress tests between the two paper models.
"""

from repro.injection.store import PacketSequence, PacketStore, PacketView
from repro.injection.base import InjectionProcess
from repro.injection.stochastic import (
    PathGenerator,
    StochasticInjection,
    uniform_pair_injection,
)
from repro.injection.adversarial import (
    BurstyAdversary,
    SawtoothAdversary,
    SmoothAdversary,
    TargetedAdversary,
    WindowAdversary,
    WindowAudit,
)
from repro.injection.markov import (
    MarkovModulatedInjection,
    PoissonBatchInjection,
    empirical_usage,
)
from repro.injection.rates import injection_rate_of_distribution, scale_to_rate

__all__ = [
    "PacketStore",
    "PacketView",
    "PacketSequence",
    "InjectionProcess",
    "StochasticInjection",
    "PathGenerator",
    "uniform_pair_injection",
    "WindowAdversary",
    "SmoothAdversary",
    "BurstyAdversary",
    "SawtoothAdversary",
    "TargetedAdversary",
    "WindowAudit",
    "MarkovModulatedInjection",
    "PoissonBatchInjection",
    "empirical_usage",
    "injection_rate_of_distribution",
    "scale_to_rate",
]
