"""Rayleigh block fading: stochastic channel gains for the SINR model.

The paper's Section-9 discussion motivates unreliable transmissions
("each transmission is lost with some probability even if interference
is small enough"). Rayleigh fading is the standard physical mechanism
behind that abstraction: every channel gain is multiplied by an
independent unit-mean exponential coefficient (the squared magnitude of
a Rayleigh-distributed amplitude), redrawn each slot (block fading).

:class:`RayleighFadingSinrModel` extends the exact
:class:`~repro.sinr.model.SinrModel` predicate with per-slot fading.
The impact matrix ``W`` (and therefore the interference measure, the
injection bounds and the frame sizing) is computed from the *mean*
gains — fading only perturbs the ground-truth success predicate,
mirroring how :class:`~repro.interference.unreliable.UnreliableModel`
thins successes without touching ``W``.

The model is analytically tractable: with unit-mean exponential fades
the success probability of link ``j`` transmitting in set ``S`` has the
classical closed form

.. math::

    P[j \\text{ succeeds}] = e^{-\\beta \\nu / s_j}
        \\prod_{k \\in S, k \\neq j} \\frac{1}{1 + \\beta i_{kj} / s_j}

where ``s_j`` is the mean received signal and ``i_kj`` the mean
interference from ``k`` at ``j``'s receiver.
:meth:`RayleighFadingSinrModel.success_probability` evaluates it
exactly, which both the tests (Monte-Carlo agreement) and the budget
sizing (:func:`fading_budget_factor`) build on.

Slot convention — as with the jamming wrapper, each call to
``successes()`` (or ``successes_with_powers``) consumes one slot of
fading randomness; probes advance the RNG.
"""

from __future__ import annotations

from typing import Optional, Sequence, Set

import numpy as np

from repro.errors import ConfigurationError
from repro.interference.base import MaskBatchEvaluator
from repro.network.network import Network
from repro.sinr.model import SinrModel
from repro.sinr.power import PowerAssignment
from repro.utils.rng import RngLike, ensure_rng


class RayleighFadingSinrModel(SinrModel):
    """SINR with unit-mean exponential (Rayleigh power) block fading.

    Accepts every :class:`~repro.sinr.model.SinrModel` parameter plus a
    fading ``rng``. Mean behaviour (``weight_matrix``, ``sinr``,
    ``interference_measure``) is that of the non-faded model; only the
    slot-by-slot success predicate is stochastic.
    """

    def __init__(
        self,
        network: Network,
        alpha: float = 3.0,
        beta: float = 1.0,
        noise: float = 0.0,
        power: Optional[PowerAssignment] = None,
        weight_matrix: Optional[np.ndarray] = None,
        rng: RngLike = None,
    ):
        super().__init__(
            network,
            alpha=alpha,
            beta=beta,
            noise=noise,
            power=power,
            weight_matrix=weight_matrix,
        )
        self._fading_rng = ensure_rng(rng)

    def state_dict(self) -> dict:
        """Mutable state: the fading RNG."""
        return {"rng": self._fading_rng.bit_generator.state}

    def load_state_dict(self, state: dict) -> None:
        from repro.utils.rng import restore_generator_state

        restore_generator_state(self._fading_rng, state["rng"])

    def batch_evaluator(self, busy: np.ndarray) -> MaskBatchEvaluator:
        # Every slot goes through the faded ``_evaluate`` (not the
        # inherited cached SINR evaluator, which would skip the fades),
        # drawing the same fades in the same order as ``successes``.
        return MaskBatchEvaluator(self, busy)

    def _evaluate(self, ids: np.ndarray, powers: np.ndarray) -> Set[int]:
        gains = self._gains[np.ix_(ids, ids)]
        fades = self._fading_rng.exponential(1.0, size=gains.shape)
        received = powers[:, None] * gains * fades
        signal = np.diag(received)
        interference = received.sum(axis=0) - signal
        ok = signal >= self.beta * (interference + self.noise) - 1e-12
        return {int(link) for link, good in zip(ids, ok) if good}

    # ------------------------------------------------------------------
    # Closed-form success probabilities
    # ------------------------------------------------------------------

    def success_probability(self, transmitting: Sequence[int]) -> np.ndarray:
        """Exact per-link success probabilities for one faded slot.

        Returns an array aligned with ``sorted(set(transmitting))`` —
        the same order ``successes`` evaluates. Uses the closed form
        for unit-mean exponential fades (see module docstring).
        """
        attempted = self._check_no_duplicates(transmitting)
        if not attempted:
            return np.zeros(0, dtype=float)
        ids = np.fromiter(sorted(attempted), dtype=int)
        powers = self.powers[ids]
        gains = self._gains[np.ix_(ids, ids)]
        received = powers[:, None] * gains  # mean receptions [k, j]
        out = np.empty(len(ids), dtype=float)
        for j in range(len(ids)):
            signal = received[j, j]
            if signal <= 0:
                out[j] = 0.0
                continue
            probability = float(np.exp(-self.beta * self.noise / signal))
            for k in range(len(ids)):
                if k == j:
                    continue
                probability /= 1.0 + self.beta * received[k, j] / signal
            out[j] = probability
        return out

    def singleton_success_probability(self, link_id: int) -> float:
        """``exp(-beta * noise / mean_signal)`` for a lone transmission."""
        if not 0 <= link_id < self.num_links:
            raise ConfigurationError(
                f"link {link_id} is outside 0..{self.num_links - 1}"
            )
        return float(self.success_probability([link_id])[0])


def fading_budget_factor(
    success_probability: float, slack: float = 1.5
) -> float:
    """Budget multiplier for a fading success probability: ``slack / p``.

    A transmission that the non-faded model certifies now succeeds with
    probability ``p``; schedules stretch by ``~1/p`` in expectation,
    the same geometry as :func:`~repro.interference.unreliable.
    reliability_budget_factor` with loss ``1 - p``.
    """
    if not 0.0 < success_probability <= 1.0:
        raise ConfigurationError(
            "success_probability must be in (0, 1], got "
            f"{success_probability}"
        )
    if slack < 1.0:
        raise ConfigurationError(f"slack must be >= 1, got {slack}")
    return slack / success_probability


def worst_singleton_success(model: RayleighFadingSinrModel) -> float:
    """The smallest singleton success probability over all links.

    The conservative per-attempt success floor used to size budgets:
    every schedule's transmissions succeed at least this often
    (interference-free case; interference lowers it further, which the
    ``slack`` in :func:`fading_budget_factor` absorbs for the sparse
    sets the protocol schedules).
    """
    probabilities = [
        model.singleton_success_probability(link)
        for link in range(model.num_links)
    ]
    if not probabilities:
        raise ConfigurationError("model has no links")
    return float(min(probabilities))


__all__ = [
    "RayleighFadingSinrModel",
    "fading_budget_factor",
    "worst_singleton_success",
]
