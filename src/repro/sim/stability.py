"""Finite-horizon stability detection.

The paper's stability notion (bounded expected queues over an infinite
horizon) is approximated by two complementary finite-horizon signals on
the in-system queue series:

1. **Drift**: the least-squares slope over the trailing portion of the
   series, normalised by the injected load per frame. A stable queue
   hovers (slope ~ 0); an unstable one grows linearly with the excess
   rate.
2. **Blow-up**: the ratio of the tail mean to the early mean. Stable
   runs plateau; unstable runs keep climbing, making the ratio grow
   with the horizon.

The thresholds are deliberately loose — the sweeps place rates well on
either side of the boundary, and the detector is calibrated in the test
suite on known-stable and known-unstable workloads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError, StabilityError

#: The shortest queue series the assessors accept; a run needs at least
#: this many frames before its stability can be judged.
MIN_FRAMES = 20


def _check_tail_fraction(tail_fraction: float) -> None:
    """Reject out-of-range tail fractions before they slice.

    ``tail_fraction`` outside ``(0, 1]`` used to produce an empty (or
    wrong) tail slice whose ``mean()`` emitted a RuntimeWarning and
    returned NaN — and every NaN comparison in the verdict is False, so
    the run was *silently classified unstable*. Same contract (and
    wording) as :meth:`repro.sim.metrics.MetricsRecorder.mean_queue`.
    """
    if not 0.0 < tail_fraction <= 1.0:
        raise ConfigurationError(
            f"tail_fraction must be in (0, 1], got {tail_fraction}"
        )


def _check_head_frames(head_frames: int) -> None:
    if head_frames < 1:
        raise ConfigurationError(
            f"head_frames must be >= 1, got {head_frames}"
        )


@dataclass(frozen=True)
class StabilityVerdict:
    """Outcome of a stability assessment."""

    stable: bool
    slope_per_frame: float
    normalised_slope: float
    blowup_ratio: float
    tail_mean: float

    def __bool__(self) -> bool:
        return self.stable


def _linear_slope(series: np.ndarray) -> float:
    """Least-squares slope of ``series`` against the frame index."""
    x = np.arange(len(series), dtype=float)
    x -= x.mean()
    y = series - series.mean()
    denominator = float((x**2).sum())
    if denominator == 0:
        return 0.0
    return float((x * y).sum() / denominator)


def assess_stability(
    queue_series: Sequence[float],
    load_per_frame: float = 1.0,
    tail_fraction: float = 0.6,
    slope_tolerance: float = 0.02,
    blowup_tolerance: float = 3.0,
    min_frames: int = MIN_FRAMES,
) -> StabilityVerdict:
    """Classify a queue series as stable or unstable.

    Parameters
    ----------
    queue_series:
        In-system packet counts, one per frame.
    load_per_frame:
        Expected injected packets per frame, used to normalise the
        slope (an unstable queue grows by a constant *fraction* of the
        load per frame).
    tail_fraction:
        The trailing fraction of the series used for the drift fit.
    slope_tolerance:
        Verdict is unstable when the normalised slope exceeds this.
    blowup_tolerance:
        ... or when tail mean exceeds this multiple of the early mean
        (with an additive floor so tiny queues don't trip it).
    """
    _check_tail_fraction(tail_fraction)
    # No list() round-trip: an ndarray input is used as-is (float64
    # arrays pass through without a copy).
    series = np.asarray(queue_series, dtype=float)
    if len(series) < min_frames:
        raise StabilityError(
            f"need at least {min_frames} frames to assess stability, got "
            f"{len(series)}"
        )
    tail_start = int(len(series) * (1.0 - tail_fraction))
    tail = series[tail_start:]
    head = series[: max(2, len(series) // 4)]
    head_mean = float(head.mean())
    return _verdict_from_windows(
        tail, head_mean, load_per_frame, slope_tolerance, blowup_tolerance
    )


def _verdict_from_windows(
    tail: np.ndarray,
    head_mean: float,
    load_per_frame: float,
    slope_tolerance: float,
    blowup_tolerance: float,
) -> StabilityVerdict:
    """The drift/blow-up math shared by the batch and windowed paths."""
    if len(tail) < 2:
        # A one-point least-squares fit has slope 0.0 by construction,
        # so the drift check would pass vacuously — exactly the kind of
        # near-boundary probe a frontier bisection must not trust.
        raise StabilityError(
            f"need at least 2 tail frames for the drift fit, got "
            f"{len(tail)}; lengthen the horizon or raise tail_fraction"
        )
    slope = _linear_slope(tail)
    load = max(load_per_frame, 1e-9)
    normalised = slope / load
    tail_mean = float(tail.mean())
    floor = 5.0 * load + 10.0
    blowup = (tail_mean + 1.0) / (max(head_mean, floor) + 1.0)
    stable = normalised <= slope_tolerance and blowup <= blowup_tolerance
    return StabilityVerdict(
        stable=stable,
        slope_per_frame=slope,
        normalised_slope=normalised,
        blowup_ratio=blowup,
        tail_mean=tail_mean,
    )


def assess_stability_windowed(
    queue_series: Sequence[float],
    window: int,
    head_frames: int,
    load_per_frame: float = 1.0,
    tail_fraction: float = 0.6,
    slope_tolerance: float = 0.02,
    blowup_tolerance: float = 3.0,
    min_frames: int = MIN_FRAMES,
) -> StabilityVerdict:
    """The bounded-memory detector's semantics, on a full series.

    This is the batch recompute of :func:`assess_stability_streaming`:
    given the *whole* queue history it produces bit-identically the
    verdict a streaming run with the same ``window`` / ``head_frames``
    produces from O(window) state. For ``len(series) <= window`` it
    delegates to :func:`assess_stability` (the streaming path holds the
    entire series in its ring there); beyond that, the drift fit and
    tail mean use the newest ``min(window, n - int(n * (1 -
    tail_fraction)))`` frames and the blow-up baseline is the mean of
    the first ``head_frames`` frames.
    """
    _check_tail_fraction(tail_fraction)
    _check_head_frames(head_frames)
    series = np.asarray(queue_series, dtype=float)
    n = len(series)
    if n < min_frames:
        # Checked before the <= window delegation: with ``window <
        # min_frames <= n`` the batch recompute used to skip the check
        # and return a verdict the streaming assessor refuses for the
        # same series — breaking the documented bit-parity contract.
        raise StabilityError(
            f"need at least {min_frames} frames to assess stability, "
            f"got {n}"
        )
    if n <= window:
        return assess_stability(
            series,
            load_per_frame=load_per_frame,
            tail_fraction=tail_fraction,
            slope_tolerance=slope_tolerance,
            blowup_tolerance=blowup_tolerance,
            min_frames=min_frames,
        )
    tail_target = n - int(n * (1.0 - tail_fraction))
    # max(2, ...): a length-1 tail would pass the drift check on a
    # vacuous fit (see _verdict_from_windows, which also guards).
    tail = series[n - max(2, min(window, tail_target)) :]
    head_mean = float(series[:head_frames].mean())
    return _verdict_from_windows(
        tail, head_mean, load_per_frame, slope_tolerance, blowup_tolerance
    )


def assess_stability_streaming(
    queue,
    load_per_frame: float = 1.0,
    tail_fraction: float = 0.6,
    slope_tolerance: float = 0.02,
    blowup_tolerance: float = 3.0,
    min_frames: int = MIN_FRAMES,
) -> StabilityVerdict:
    """Classify a queue tracked as a
    :class:`~repro.sim.streaming.StreamingSeries`, in O(window) space.

    While the run still fits the ring (``count <= window``) the verdict
    is *exactly* :func:`assess_stability` on the full series; beyond
    that it is the windowed detector of
    :func:`assess_stability_windowed` — drift over the newest frames,
    blow-up against the exact mean of the first ``head_frames`` frames
    (kept by the series' head accumulator). Either way the verdict is a
    pure function of the series, so a batch recompute from full history
    reproduces it bit for bit.
    """
    _check_tail_fraction(tail_fraction)
    n = queue.count
    if n < min_frames:
        raise StabilityError(
            f"need at least {min_frames} frames to assess stability, got {n}"
        )
    values = queue.values().astype(float)
    if n <= queue.window:
        return assess_stability(
            values,
            load_per_frame=load_per_frame,
            tail_fraction=tail_fraction,
            slope_tolerance=slope_tolerance,
            blowup_tolerance=blowup_tolerance,
            min_frames=min_frames,
        )
    tail_target = n - int(n * (1.0 - tail_fraction))
    # max(2, ...): mirrors the windowed batch recompute bit for bit
    # (the ring always holds >= window >= 8 frames here).
    tail = values[len(values) - max(2, min(queue.window, tail_target)) :]
    # The head accumulator's sum is exact (integer series), so this
    # mean equals the batch np.mean over the same prefix bit for bit.
    head_mean = queue.head.mean
    return _verdict_from_windows(
        tail, head_mean, load_per_frame, slope_tolerance, blowup_tolerance
    )


__all__ = [
    "MIN_FRAMES",
    "assess_stability",
    "assess_stability_streaming",
    "assess_stability_windowed",
    "StabilityVerdict",
]
