"""The exact SINR interference model.

:class:`SinrModel` is the ground-truth success predicate for all
Section-6 experiments: given the set of links transmitting in a slot
(and their powers — fixed by the assignment, or supplied per-slot by a
power-control scheduler), it evaluates the SINR inequality exactly with
vectorised numpy.

The model's impact matrix ``W`` is pluggable because the paper chooses
different ``W`` for different power regimes (Section 6.1/6.2); the
factory helpers in :mod:`repro.sinr.weights` build matched
(model, weights) pairs.
"""

from __future__ import annotations

from typing import Optional, Sequence, Set

import numpy as np

from repro.errors import ConfigurationError
from repro.interference.base import CachedBatchEvaluator, InterferenceModel
from repro.network.network import Network
from repro.sinr.affectance import affectance_matrix, sender_receiver_gains
from repro.sinr.power import PowerAssignment, UniformPower


def _sinr_feasible(signal, interference, beta, noise):
    """The SINR test ``signal >= beta·(interference + noise)``, with the
    1e-12 tolerance every exact evaluation path shares."""
    return signal >= beta * (interference + noise) - 1e-12


class _SinrBatchEvaluator(CachedBatchEvaluator):
    """SINR feasibility on a busy-set gain submatrix, gathered lazily.

    Slicing the cached submatrix reproduces the scalar ``_evaluate``
    gather exactly (same entries, same reduction order), so the batch
    path is bit-identical to the reference even at SINR boundaries.
    The submatrix is gathered over the *initial* busy set on the first
    slot with two or more transmitters; a run that never has one builds
    no k×k table. A lone transmitter's verdict depends on its link
    alone, so :meth:`lone` reads it from the model's per-link table
    (:meth:`SinrModel.lone_verdicts`).
    """

    def __init__(self, model: "SinrModel", busy: np.ndarray):
        super().__init__(busy)
        self._model = model
        self._initial = self._busy
        self._gains = None
        self._lone_ok = model.lone_verdicts()

    def successes_local(self, transmit_local: np.ndarray) -> np.ndarray:
        if self._gains is None:
            initial = self._initial
            model = self._model
            self._gains = model._gains[np.ix_(initial, initial)]
            self._powers = model._powers[initial]
            self._beta = model.beta
            self._noise = model.noise
        cache_idx = self._cols[transmit_local]
        gains = self._gains[cache_idx[:, None], cache_idx]
        received = self._powers[cache_idx, None] * gains
        signal = received.diagonal()
        interference = received.sum(axis=0) - signal
        ok = _sinr_feasible(signal, interference, self._beta, self._noise)
        mask = np.zeros(transmit_local.size, dtype=bool)
        mask[transmit_local] = ok
        return mask

    def lone(self, index: np.ndarray) -> np.ndarray:
        return self._lone_ok.take(self._busy.take(index))


class SinrModel(InterferenceModel):
    """Exact SINR feasibility over a geometric network.

    Parameters
    ----------
    network:
        A geometric network (positions or metric required).
    alpha:
        Path-loss exponent (typically 2-6; the plane needs ``alpha > 2``
        for bounded interference sums, but the model itself accepts any
        positive value).
    beta:
        SINR threshold.
    noise:
        Ambient noise ``nu >= 0``.
    power:
        Fixed power assignment; defaults to uniform power 1.
    weight_matrix:
        Optional explicit ``W``. Defaults to the affectance-based matrix
        ``W[l, l'] = a_p(l', l)`` for the fixed assignment — the
        Section-6.1 construction.
    """

    def __init__(
        self,
        network: Network,
        alpha: float = 3.0,
        beta: float = 1.0,
        noise: float = 0.0,
        power: Optional[PowerAssignment] = None,
        weight_matrix: Optional[np.ndarray] = None,
    ):
        if not network.is_geometric:
            raise ConfigurationError("SINR model requires a geometric network")
        if alpha <= 0:
            raise ConfigurationError(f"alpha must be positive, got {alpha}")
        if beta <= 0:
            raise ConfigurationError(f"beta must be positive, got {beta}")
        if noise < 0:
            raise ConfigurationError(f"noise must be non-negative, got {noise}")
        super().__init__(network)
        self._alpha = float(alpha)
        self._beta = float(beta)
        self._noise = float(noise)
        self._power = power if power is not None else UniformPower(1.0)
        self._powers = np.asarray(
            self._power.powers(network, self._alpha), dtype=float
        )
        if self._powers.shape != (network.num_links,):
            raise ConfigurationError("power assignment returned a wrong-sized vector")
        if (self._powers <= 0).any():
            raise ConfigurationError("power assignment returned non-positive powers")
        self._gains = sender_receiver_gains(network, self._alpha)
        self._explicit_weights = weight_matrix
        self._lone_ok: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Parameters
    # ------------------------------------------------------------------

    @property
    def alpha(self) -> float:
        """Path-loss exponent."""
        return self._alpha

    @property
    def beta(self) -> float:
        """SINR threshold."""
        return self._beta

    @property
    def noise(self) -> float:
        """Ambient noise ``nu``."""
        return self._noise

    @property
    def power_assignment(self) -> PowerAssignment:
        """The fixed power assignment."""
        return self._power

    @property
    def powers(self) -> np.ndarray:
        """Per-link fixed powers (read-only view)."""
        view = self._powers.view()
        view.setflags(write=False)
        return view

    def signal_strengths(self) -> np.ndarray:
        """Mean received signal ``p(l) * g(l, l)`` per link.

        The numerator of each link's SINR (and the scale fading is
        relative to); a link is individually feasible iff its entry
        exceeds ``beta * noise``.
        """
        return self._powers * np.diag(self._gains)

    # ------------------------------------------------------------------
    # Measure
    # ------------------------------------------------------------------

    def _build_weight_matrix(self) -> np.ndarray:
        if self._explicit_weights is not None:
            return np.asarray(self._explicit_weights, dtype=float)
        affect = affectance_matrix(
            self.network, self._powers, self._alpha, self._beta, self._noise
        )
        # W[e, e'] = impact ON e FROM e' = a_p(e', e) -> transpose.
        return affect.T.copy()

    # ------------------------------------------------------------------
    # Ground truth
    # ------------------------------------------------------------------

    def successes(self, transmitting: Sequence[int]) -> Set[int]:
        """Exact SINR evaluation under the fixed power assignment."""
        attempted = self._check_no_duplicates(transmitting)
        if not attempted:
            return set()
        ids = np.fromiter(sorted(attempted), dtype=int)
        return self._evaluate(ids, self._powers[ids])

    def successes_mask(self, active: np.ndarray) -> np.ndarray:
        active = self._as_active_mask(active)
        mask = np.zeros(self.num_links, dtype=bool)
        if not active.any():
            return mask
        ids = np.flatnonzero(active)
        winners = self._evaluate(ids, self._powers[ids])
        if winners:
            mask[np.fromiter(winners, dtype=np.int64)] = True
        return mask

    def batch_evaluator(self, busy: np.ndarray) -> _SinrBatchEvaluator:
        return _SinrBatchEvaluator(self, busy)

    def lone_verdicts(self) -> np.ndarray:
        """Per-link verdict of each link transmitting alone (cached).

        Derived with the slot evaluation's own ops, which are
        elementwise, so entry ``l`` has the bits a one-transmitter
        ``_evaluate`` gives link ``l``: over one transmitter
        ``received.sum(axis=0) - signal`` is ``signal - signal`` (kept
        so, not 0.0, for identical inf and nan cases). Read-only.
        """
        if self._lone_ok is None:
            signal = self.signal_strengths()
            lone_ok = _sinr_feasible(
                signal, signal - signal, self._beta, self._noise
            )
            lone_ok.setflags(write=False)
            self._lone_ok = lone_ok
        return self._lone_ok

    def successes_with_powers(
        self, transmitting: Sequence[int], powers: Sequence[float]
    ) -> Set[int]:
        """Exact SINR evaluation with per-slot powers (power control).

        ``powers[k]`` is the power used by ``transmitting[k]`` in this
        slot. Used by the Corollary-14 machinery where the algorithm
        picks powers per transmission.
        """
        attempted = self._check_no_duplicates(transmitting)
        ids = np.asarray(list(transmitting), dtype=int)
        power_arr = np.asarray(list(powers), dtype=float)
        if power_arr.shape != ids.shape:
            raise ConfigurationError(
                "one power per transmitting link required "
                f"(got {power_arr.shape[0]} powers for {ids.shape[0]} links)"
            )
        if (power_arr <= 0).any():
            raise ConfigurationError("transmission powers must be positive")
        if not attempted:
            return set()
        return self._evaluate(ids, power_arr)

    def _evaluate(self, ids: np.ndarray, powers: np.ndarray) -> Set[int]:
        gains = self._gains[np.ix_(ids, ids)]
        received = powers[:, None] * gains  # [k, j]: from sender k at receiver j
        signal = np.diag(received)
        interference = received.sum(axis=0) - signal
        ok = _sinr_feasible(signal, interference, self._beta, self._noise)
        return {int(link) for link, good in zip(ids, ok) if good}

    def sinr(self, link_id: int, transmitting: Sequence[int]) -> float:
        """The SINR experienced by ``link_id`` within the given set.

        ``link_id`` must be one of the transmitting links. Returns
        ``inf`` when there is neither interference nor noise.
        """
        ids = list(transmitting)
        if link_id not in ids:
            raise ConfigurationError(
                f"link {link_id} is not among the transmitting links"
            )
        arr = np.asarray(ids, dtype=int)
        gains = self._gains[np.ix_(arr, arr)]
        received = self._powers[arr][:, None] * gains
        j = ids.index(link_id)
        signal = float(received[j, j])
        interference = float(received[:, j].sum() - received[j, j])
        denominator = interference + self._noise
        if denominator == 0:
            return float("inf")
        return signal / denominator


__all__ = ["SinrModel"]
