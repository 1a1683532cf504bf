"""Frame sizing for the dynamic protocol (paper Section 4).

For injection rate ``lambda = (1 - epsilon)/f(m)`` the paper requires a
frame length

    T >= 100 f(m)/eps^3 + 48 f(m) ln m / eps^2        (drift constants)
    T >= (4 f(m)/eps^2) * g(m, (m/f(m)) * T)          (additive term)

and derives ``J = (1 + eps) * lambda * T`` (the measure budget a frame
is provisioned for) and the phase-1 window
``T' = f(m) * J + g(m, m J)``. The clean-up phase gets the rest of the
frame; it must fit ``f(m) * 1 + g(m, m J)`` slots.

``t_scale`` shrinks the proof constants for experiments (the theorems
hold *a fortiori* at the paper's values; the experiments test shapes,
which survive constant scaling; the paper-claim benches listed by
``repro experiments`` check those shapes). The solver always
enforces the *structural* constraint that both phases fit, growing ``T``
if the scaled constants violate it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.staticsched.base import LengthBound, StaticAlgorithm
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class FrameParameters:
    """Everything the protocol needs to know about its frames."""

    frame_length: int  # T
    phase1_budget: int  # T'
    cleanup_budget: int  # slots reserved per clean-up execution
    measure_budget: float  # J
    epsilon: float
    rate: float  # lambda
    f_m: float
    m: int

    def __post_init__(self):
        if self.phase1_budget + self.cleanup_budget > self.frame_length:
            raise ConfigurationError(
                f"phases do not fit: T'={self.phase1_budget} + "
                f"cleanup={self.cleanup_budget} > T={self.frame_length}"
            )


def epsilon_for_rate(rate: float, f_m: float) -> float:
    """``eps`` with ``lambda = (1 - eps)/f(m)``, clamped to (0, 1/2].

    The paper assumes ``eps <= 1/2`` w.l.o.g. (a smaller eps only
    weakens the adversary's budget). A non-positive eps means the rate
    is at or above the protocol's certified capacity.
    """
    eps = 1.0 - rate * f_m
    if eps <= 0:
        raise ConfigurationError(
            f"rate {rate} is not below the certified capacity 1/f(m) = "
            f"{1.0 / f_m:.6g}; the protocol's guarantee does not apply"
        )
    return min(eps, 0.5)


def compute_frame_parameters(
    algorithm: StaticAlgorithm,
    m: int,
    rate: float,
    t_scale: float = 1.0,
    min_frame: int = 4,
) -> FrameParameters:
    """Solve the Section-4 constraints for ``T``, ``T'``, ``J``.

    The ``g`` condition couples ``T`` to itself through ``J``; since
    ``g`` grows sub-linearly in ``n`` the fixed point exists, and a few
    iterations converge. Afterwards ``T`` is bumped (geometrically) until
    both phases structurally fit — the safety net for small ``t_scale``.
    """
    if m < 1:
        raise ConfigurationError(f"m must be >= 1, got {m}")
    check_positive("rate", rate)
    check_positive("t_scale", t_scale)
    bound = algorithm.network_bound(m)
    f_m = max(bound.f(m), 1e-9)
    eps = epsilon_for_rate(rate, f_m)

    base_t = t_scale * (
        100.0 * f_m / eps**3 + 48.0 * f_m * math.log(max(m, 2)) / eps**2
    )
    t = max(float(min_frame), base_t)
    for _ in range(32):
        n_for_g = max(1, math.ceil(m / f_m * t))
        g_condition = t_scale * (4.0 * f_m / eps**2) * bound.g(m, n_for_g)
        new_t = max(float(min_frame), base_t, g_condition)
        if new_t <= t * (1.0 + 1e-9):
            t = max(t, new_t)
            break
        t = new_t

    while True:
        frame_length = max(min_frame, math.ceil(t))
        measure_budget = max(1.0, (1.0 + eps) * rate * frame_length)
        n_phase = max(1, math.ceil(m * measure_budget))
        phase1 = max(1, math.ceil(f_m * measure_budget + bound.g(m, n_phase)))
        cleanup = max(1, math.ceil(f_m * 1.0 + bound.g(m, n_phase)))
        if phase1 + cleanup <= frame_length:
            break
        t = t * 1.25 + 1.0

    return FrameParameters(
        frame_length=frame_length,
        phase1_budget=phase1,
        cleanup_budget=cleanup,
        measure_budget=measure_budget,
        epsilon=eps,
        rate=rate,
        f_m=f_m,
        m=m,
    )


__all__ = ["FrameParameters", "compute_frame_parameters", "epsilon_for_rate"]
