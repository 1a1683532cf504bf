"""Unreliable networks: the paper's Section-9 extension.

The paper's discussion names a "trivial extension ... that each
transmission is lost with some probability even if interference is
small enough. It suffices to consider the effect on the respective
static schedule length."

:class:`UnreliableModel` wraps any base interference model and drops
each otherwise-successful transmission independently with probability
``loss_probability``. The measure (``W``) is the base model's — loss is
orthogonal to interference. The effect on static algorithms is exactly
what the paper predicts: a per-attempt success factor ``(1 - p)``,
i.e. budgets scale by ``1/(1 - p)``; :func:`reliability_budget_factor`
computes the sizing adjustment, and the X1 benchmark validates that the
protocol stays stable with (and only with) the adjusted budget.
"""

from __future__ import annotations

from typing import Optional, Sequence, Set

import numpy as np

from repro.errors import ConfigurationError
from repro.interference.base import BatchSuccessEvaluator, InterferenceModel
from repro.utils.rng import RngLike, ensure_rng


class _UnreliableBatchEvaluator(BatchSuccessEvaluator):
    """Wraps the base model's evaluator and thins winners with one draw.

    The loss coins are drawn as a single batch over the interference
    winners in ascending link order — the same stream the scalar path
    consumes one call at a time, so both paths replay identically under
    one seed.
    """

    def __init__(self, model: "UnreliableModel", busy: np.ndarray):
        super().__init__(busy)
        self._inner = model.base.batch_evaluator(busy)
        self._rng = model._rng
        self._loss = model.loss_probability

    def successes_local(self, att_idx: np.ndarray) -> np.ndarray:
        winners = self._inner.successes_local(att_idx)
        if self._loss == 0.0 or not winners.any():
            return winners
        idx = np.flatnonzero(winners)
        lost = self._rng.random(idx.size) < self._loss
        out = winners.copy()
        out[idx[lost]] = False
        return out

    def drop(self, keep_local: np.ndarray) -> None:
        self._inner.drop(keep_local)
        super().drop(keep_local)


class UnreliableModel(InterferenceModel):
    """Base-model successes thinned by iid per-transmission loss.

    Parameters
    ----------
    base:
        The underlying interference model (ground truth for collisions).
    loss_probability:
        Probability that an interference-wise successful transmission
        is lost anyway (fading, CRC failure, ...). Applied
        independently per transmission per slot.
    rng:
        Loss randomness; seeded for replayability like everything else.
    """

    def __init__(
        self,
        base: InterferenceModel,
        loss_probability: float,
        rng: RngLike = None,
    ):
        if not 0.0 <= loss_probability < 1.0:
            raise ConfigurationError(
                f"loss_probability must be in [0, 1), got {loss_probability}"
            )
        super().__init__(base.network)
        self._base = base
        self._loss = float(loss_probability)
        self._rng = ensure_rng(rng)

    @property
    def base(self) -> InterferenceModel:
        """The wrapped model."""
        return self._base

    @property
    def loss_probability(self) -> float:
        return self._loss

    def state_dict(self) -> dict:
        """Mutable state: the loss-coin RNG (plus base-model state)."""
        base_state = getattr(self._base, "state_dict", None)
        return {
            "rng": self._rng.bit_generator.state,
            "base": base_state() if base_state is not None else None,
        }

    def load_state_dict(self, state: dict) -> None:
        from repro.errors import ConfigurationError
        from repro.utils.rng import restore_generator_state

        restore_generator_state(self._rng, state["rng"])
        base_state = state.get("base")
        if base_state is not None:
            loader = getattr(self._base, "load_state_dict", None)
            if loader is None:
                raise ConfigurationError(
                    f"checkpoint carries base-model state but "
                    f"{type(self._base).__name__} is stateless"
                )
            loader(base_state)

    def _build_weight_matrix(self) -> np.ndarray:
        # Interference geometry is unchanged; only delivery is thinned.
        return np.array(self._base.weight_matrix())

    def successes(self, transmitting: Sequence[int]) -> Set[int]:
        interference_winners = self._base.successes(transmitting)
        if not interference_winners or self._loss == 0.0:
            return interference_winners
        # Coins are spent in ascending link order so the batched path
        # (one vectorised draw over the sorted winners) consumes the
        # exact same stream.
        survivors = {
            link
            for link in sorted(interference_winners)
            if self._rng.random() >= self._loss
        }
        return survivors

    def batch_evaluator(self, busy: np.ndarray) -> _UnreliableBatchEvaluator:
        return _UnreliableBatchEvaluator(self, busy)


def reliability_budget_factor(loss_probability: float, slack: float = 1.5) -> float:
    """Budget multiplier compensating iid loss: ``slack / (1 - p)``.

    Each attempt that would have succeeded now succeeds w.p. ``1 - p``,
    so a schedule of length ``L`` needs ``~L/(1 - p)`` slots to deliver
    the same set whp; ``slack`` restores the high-probability margin
    (the geometric tail of the extra retries).
    """
    if not 0.0 <= loss_probability < 1.0:
        raise ConfigurationError(
            f"loss_probability must be in [0, 1), got {loss_probability}"
        )
    if slack < 1.0:
        raise ConfigurationError(f"slack must be >= 1, got {slack}")
    return slack / (1.0 - loss_probability)


__all__ = ["UnreliableModel", "reliability_budget_factor"]
