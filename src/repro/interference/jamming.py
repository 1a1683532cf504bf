"""Adversarial jamming: the paper's other Section-9 direction.

The discussion section points at unreliable communication in the style
of jamming-resistant MAC protocols (Awerbuch–Richa–Scheideler and
follow-ups): an adversary may render slots useless, but is *bounded* —
in any window of ``w`` slots it can jam at most a ``sigma`` fraction.

Following the paper's recipe ("it suffices to consider the effect on
the respective static schedule length"), :class:`JammedModel` wraps any
base interference model with a jamming pattern: in a jammed slot the
targeted links lose their transmissions regardless of interference.
The static schedule stretches by at most ``1/(1 - sigma)`` (only a
``1 - sigma`` fraction of slots is usable), so budgets scaled by
:func:`jamming_budget_factor` restore the high-probability guarantee —
the X3 benchmark validates stability with (and only with) the
adjustment.

Slot convention
---------------
The model cannot see the protocol's clock, so **each call to
``successes()`` advances the jammer by one slot**. That matches how
every scheduler in :mod:`repro.staticsched` runs (one ``successes()``
evaluation per slot) and how :class:`~repro.interference.unreliable.
UnreliableModel` consumes randomness per call. Probing helpers such as
``singleton_succeeds`` also advance the clock; build a fresh model for
experiments after probing, or use :meth:`JammedModel.reset`.

Patterns
--------
* :class:`PeriodicBurstPattern` — jams the first ``burst`` slots of
  every ``period``-slot cycle (the classic reactive-jammer shape).
* :class:`RandomPattern` — jams each slot independently with
  probability ``sigma`` (the stochastic comparison point).
* :class:`FrontLoadedPattern` — spends the entire per-window budget
  ``floor(sigma * window)`` at the start of each window (the worst
  burst a ``(window, sigma)``-bounded jammer can produce).

:func:`worst_window_fraction` audits any pattern empirically, mirroring
the :class:`~repro.injection.adversarial.WindowAudit` for injection.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Optional, Sequence, Set

import numpy as np

from repro.errors import ConfigurationError
from repro.interference.base import BatchSuccessEvaluator, InterferenceModel
from repro.utils.rng import RngLike, ensure_rng


class _JammedBatchEvaluator(BatchSuccessEvaluator):
    """Wraps the base evaluator; advances the jammer clock once per slot.

    The target set is pre-resolved to a local mask over the busy links,
    so jammed slots cost one boolean AND instead of a set difference.
    """

    def __init__(self, model: "JammedModel", busy: np.ndarray):
        super().__init__(busy)
        self._model = model
        self._inner = model.base.batch_evaluator(busy)
        if model._targets is None:
            self._reachable_local: Optional[np.ndarray] = None
        else:
            self._reachable_local = np.fromiter(
                (int(e) in model._targets for e in busy),
                dtype=bool,
                count=len(busy),
            )

    def successes_local(self, att_idx: np.ndarray) -> np.ndarray:
        slot = self._model._slot
        self._model._slot += 1
        winners = self._inner.successes_local(att_idx)
        if not winners.any() or not self._model.pattern.is_jammed(slot):
            return winners
        if self._reachable_local is None:
            return np.zeros(winners.size, dtype=bool)
        return winners & ~self._reachable_local.take(att_idx)

    def drop(self, keep_local: np.ndarray) -> None:
        self._inner.drop(keep_local)
        if self._reachable_local is not None:
            self._reachable_local = self._reachable_local[keep_local]
        super().drop(keep_local)


class JammingPattern(ABC):
    """Decides, slot by slot, whether the jammer is active."""

    @abstractmethod
    def is_jammed(self, slot: int) -> bool:
        """Whether slot ``slot`` is jammed."""

    @property
    @abstractmethod
    def jam_fraction(self) -> float:
        """Long-run fraction of jammed slots (``sigma``)."""


class PeriodicBurstPattern(JammingPattern):
    """Jams the first ``burst`` slots of every ``period``-slot cycle."""

    def __init__(self, period: int, burst: int, phase: int = 0):
        if period <= 0:
            raise ConfigurationError(f"period must be positive, got {period}")
        if not 0 <= burst <= period:
            raise ConfigurationError(
                f"burst must be in [0, period={period}], got {burst}"
            )
        if phase < 0:
            raise ConfigurationError(f"phase must be non-negative, got {phase}")
        self._period = int(period)
        self._burst = int(burst)
        self._phase = int(phase)

    @property
    def period(self) -> int:
        return self._period

    @property
    def burst(self) -> int:
        return self._burst

    def is_jammed(self, slot: int) -> bool:
        return (slot + self._phase) % self._period < self._burst

    @property
    def jam_fraction(self) -> float:
        return self._burst / self._period


class RandomPattern(JammingPattern):
    """Jams each slot independently with probability ``sigma``.

    Decisions are memoised so repeated queries for one slot agree.
    """

    def __init__(self, sigma: float, rng: RngLike = None):
        if not 0.0 <= sigma < 1.0:
            raise ConfigurationError(f"sigma must be in [0, 1), got {sigma}")
        self._sigma = float(sigma)
        self._rng = ensure_rng(rng)
        self._decided: dict = {}

    def is_jammed(self, slot: int) -> bool:
        if slot not in self._decided:
            self._decided[slot] = bool(self._rng.random() < self._sigma)
        return self._decided[slot]

    @property
    def jam_fraction(self) -> float:
        return self._sigma

    def state_dict(self) -> dict:
        """Mutable state: the coin RNG plus the per-slot decision memo.

        The memo must travel with the RNG — replaying a decided slot
        after resume must neither flip the decision nor burn a coin.
        """
        return {
            "rng": self._rng.bit_generator.state,
            "decided": {
                str(slot): bool(v) for slot, v in self._decided.items()
            },
        }

    def load_state_dict(self, state: dict) -> None:
        from repro.utils.rng import restore_generator_state

        restore_generator_state(self._rng, state["rng"])
        self._decided = {
            int(slot): bool(v) for slot, v in state["decided"].items()
        }


class FrontLoadedPattern(JammingPattern):
    """A ``(window, sigma)``-bounded jammer spending its whole budget upfront.

    In every window ``[k*window, (k+1)*window)`` exactly
    ``floor(sigma * window)`` leading slots are jammed — the burstiest
    schedule the bound admits, and therefore the stress case for
    frame-based protocols.
    """

    def __init__(self, window: int, sigma: float):
        if window <= 0:
            raise ConfigurationError(f"window must be positive, got {window}")
        if not 0.0 <= sigma < 1.0:
            raise ConfigurationError(f"sigma must be in [0, 1), got {sigma}")
        self._window = int(window)
        self._sigma = float(sigma)
        self._budget = int(math.floor(sigma * window))

    @property
    def window(self) -> int:
        return self._window

    @property
    def per_window_budget(self) -> int:
        return self._budget

    def is_jammed(self, slot: int) -> bool:
        return slot % self._window < self._budget

    @property
    def jam_fraction(self) -> float:
        return self._budget / self._window


class JammedModel(InterferenceModel):
    """Base-model successes erased in jammed slots.

    Parameters
    ----------
    base:
        Ground-truth interference model.
    pattern:
        When a slot is jammed, the targeted links' transmissions fail
        no matter how little interference there is.
    targets:
        Link ids the jammer can reach; ``None`` means every link (a
        wide-band jammer). A geometry-limited jammer passes the links
        within its range.
    """

    def __init__(
        self,
        base: InterferenceModel,
        pattern: JammingPattern,
        targets: Optional[Sequence[int]] = None,
    ):
        super().__init__(base.network)
        self._base = base
        self._pattern = pattern
        if targets is None:
            self._targets: Optional[Set[int]] = None
        else:
            target_set = {int(t) for t in targets}
            for link in target_set:
                if not 0 <= link < base.num_links:
                    raise ConfigurationError(
                        f"jammer target {link} is outside 0..{base.num_links - 1}"
                    )
            self._targets = target_set
        self._slot = 0

    @property
    def base(self) -> InterferenceModel:
        """The wrapped model."""
        return self._base

    @property
    def pattern(self) -> JammingPattern:
        return self._pattern

    @property
    def slots_elapsed(self) -> int:
        """How many slots (``successes()`` calls) this model has seen."""
        return self._slot

    def reset(self) -> None:
        """Rewind the jammer clock to slot 0 (e.g. after probing)."""
        self._slot = 0

    def state_dict(self) -> dict:
        """Mutable state: the slot clock, plus pattern/base state if any."""
        state: dict = {"slot": self._slot}
        pattern_state = getattr(self._pattern, "state_dict", None)
        state["pattern"] = (
            pattern_state() if pattern_state is not None else None
        )
        base_state = getattr(self._base, "state_dict", None)
        state["base"] = base_state() if base_state is not None else None
        return state

    def load_state_dict(self, state: dict) -> None:
        from repro.errors import ConfigurationError as _CfgError

        self._slot = int(state["slot"])
        pattern_state = state.get("pattern")
        if pattern_state is not None:
            loader = getattr(self._pattern, "load_state_dict", None)
            if loader is None:
                raise _CfgError(
                    f"checkpoint carries jamming-pattern state but "
                    f"{type(self._pattern).__name__} is stateless"
                )
            loader(pattern_state)
        base_state = state.get("base")
        if base_state is not None:
            loader = getattr(self._base, "load_state_dict", None)
            if loader is None:
                raise _CfgError(
                    f"checkpoint carries base-model state but "
                    f"{type(self._base).__name__} is stateless"
                )
            loader(base_state)

    def _build_weight_matrix(self) -> np.ndarray:
        # Jamming is orthogonal to interference geometry.
        return np.array(self._base.weight_matrix())

    def successes(self, transmitting: Sequence[int]) -> Set[int]:
        slot = self._slot
        self._slot += 1
        winners = self._base.successes(transmitting)
        if not winners or not self._pattern.is_jammed(slot):
            return winners
        if self._targets is None:
            return set()
        return {link for link in winners if link not in self._targets}

    def batch_evaluator(self, busy: np.ndarray) -> _JammedBatchEvaluator:
        return _JammedBatchEvaluator(self, busy)


def jamming_budget_factor(sigma: float, slack: float = 1.5) -> float:
    """Budget multiplier compensating a jam fraction: ``slack / (1 - sigma)``.

    Only a ``1 - sigma`` fraction of slots is usable, so a schedule of
    length ``L`` needs ``~L/(1 - sigma)`` slots; ``slack`` restores the
    high-probability margin against unlucky alignment of bursts with
    the algorithm's random choices.
    """
    if not 0.0 <= sigma < 1.0:
        raise ConfigurationError(f"sigma must be in [0, 1), got {sigma}")
    if slack < 1.0:
        raise ConfigurationError(f"slack must be >= 1, got {slack}")
    return slack / (1.0 - sigma)


def worst_window_fraction(
    pattern: JammingPattern, window: int, horizon: int
) -> float:
    """The largest jammed fraction over any ``window`` consecutive slots.

    Empirical audit of a pattern's burstiness over ``[0, horizon)`` —
    the jamming analogue of the injection ``WindowAudit``. A
    ``(window, sigma)``-bounded jammer must return at most ``sigma``
    (up to the floor on integral budgets).
    """
    if window <= 0:
        raise ConfigurationError(f"window must be positive, got {window}")
    if horizon < window:
        raise ConfigurationError(
            f"horizon ({horizon}) must cover at least one window ({window})"
        )
    flags = np.array(
        [1 if pattern.is_jammed(slot) else 0 for slot in range(horizon)],
        dtype=float,
    )
    sums = np.convolve(flags, np.ones(window), mode="valid")
    return float(sums.max()) / window


__all__ = [
    "JammingPattern",
    "PeriodicBurstPattern",
    "RandomPattern",
    "FrontLoadedPattern",
    "JammedModel",
    "jamming_budget_factor",
    "worst_window_fraction",
]
