"""Power assignments for SINR links (paper Section 6).

A power assignment maps every link to a fixed transmission power. The
regimes the paper distinguishes:

* :class:`UniformPower` — every link uses the same power. The baseline
  "no power control" case (and the setting of the Theorem-20 lower
  bound).
* :class:`LinearPower` — ``p(l) proportional to d(l)**alpha``: every
  receiver hears its own sender at the same strength. The paper's best
  case (constant-competitive, Corollary 12).
* :class:`SquareRootPower` — ``p(l) proportional to d(l)**(alpha/2)``,
  the oblivious assignment of Fanghaenel et al. / Halldorsson giving
  ``O(log log Delta)``-type factors (Section 6.2).
* any custom assignment; :func:`is_monotone_sublinear` checks the
  condition Corollary 13 needs (longer links use at least as much power,
  but no more per-distance-gain: ``p`` monotone and ``p/d**alpha``
  non-increasing).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.errors import ConfigurationError
from repro.network.network import Network
from repro.utils.validation import check_positive


class PowerAssignment(ABC):
    """Maps each link of a network to a fixed transmission power."""

    @abstractmethod
    def powers(self, network: Network, alpha: float) -> np.ndarray:
        """Per-link powers (array indexed by link id), all positive."""

    def describe(self) -> str:
        """Human-readable name used in experiment tables."""
        return type(self).__name__


class UniformPower(PowerAssignment):
    """Every link transmits at the same power ``level``."""

    def __init__(self, level: float = 1.0):
        self._level = check_positive("level", level)

    def powers(self, network: Network, alpha: float) -> np.ndarray:
        return np.full(network.num_links, self._level, dtype=float)

    def describe(self) -> str:
        return f"uniform({self._level})"


class LinearPower(PowerAssignment):
    """``p(l) = scale * d(l)**alpha`` — equal received signal strength."""

    def __init__(self, scale: float = 1.0):
        self._scale = check_positive("scale", scale)

    def powers(self, network: Network, alpha: float) -> np.ndarray:
        lengths = network.link_lengths()
        if (lengths <= 0).any():
            raise ConfigurationError("linear power requires positive link lengths")
        return self._scale * lengths**alpha

    def describe(self) -> str:
        return f"linear({self._scale})"


class SquareRootPower(PowerAssignment):
    """``p(l) = scale * d(l)**(alpha/2)`` — the oblivious 'mean' assignment."""

    def __init__(self, scale: float = 1.0):
        self._scale = check_positive("scale", scale)

    def powers(self, network: Network, alpha: float) -> np.ndarray:
        lengths = network.link_lengths()
        if (lengths <= 0).any():
            raise ConfigurationError("square-root power requires positive link lengths")
        return self._scale * lengths ** (alpha / 2.0)

    def describe(self) -> str:
        return f"sqrt({self._scale})"


class ExplicitPower(PowerAssignment):
    """An arbitrary per-link power vector supplied by the caller."""

    def __init__(self, powers: np.ndarray):
        powers = np.asarray(powers, dtype=float)
        if not (np.isfinite(powers) & (powers > 0)).all():
            raise ConfigurationError("all powers must be positive and finite")
        self._powers = powers

    def powers(self, network: Network, alpha: float) -> np.ndarray:
        if self._powers.shape != (network.num_links,):
            raise ConfigurationError(
                f"power vector has shape {self._powers.shape}, expected "
                f"({network.num_links},)"
            )
        return self._powers

    def describe(self) -> str:
        return "explicit"


def is_monotone_sublinear(
    network: Network, powers: np.ndarray, alpha: float, tolerance: float = 1e-9
) -> bool:
    """Check the Corollary-13 condition on a power vector.

    For links ``l, l'`` with ``d(l) <= d(l')`` we need ``p(l) <= p(l')``
    (monotone) and ``p(l)/d(l)**alpha >= p(l')/d(l')**alpha``
    (sub-linear). Sorting by length reduces both to monotonicity of two
    sequences.
    """
    lengths = network.link_lengths()
    order = np.argsort(lengths, kind="stable")
    p_sorted = np.asarray(powers, dtype=float)[order]
    gain_sorted = p_sorted / lengths[order] ** alpha
    monotone = bool((np.diff(p_sorted) >= -tolerance).all())
    sublinear = bool((np.diff(gain_sorted) <= tolerance).all())
    return monotone and sublinear


__all__ = [
    "PowerAssignment",
    "UniformPower",
    "LinearPower",
    "SquareRootPower",
    "ExplicitPower",
    "is_monotone_sublinear",
]
