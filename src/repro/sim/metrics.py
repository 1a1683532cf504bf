"""Metrics collection for protocol simulations.

One :class:`MetricsRecorder` per simulation run. Everything the
EXPERIMENTS tables report flows through here, so benches and tests read
a single, consistent schema. Two retention policies:

* ``full`` (the default, and exactly the historical behaviour) —
  per-frame Python lists for every series; memory grows linearly with
  the horizon, and every consumer can read the whole history.
* ``streaming`` — bounded memory. Per-frame values fold into the O(1)
  accumulators of :mod:`repro.sim.streaming` (exact count/sum/min/max,
  a ring window over the newest ``window`` frames, a quantile sketch
  for latencies) and the series lists stay empty. Counts, means and
  extremes are exact (bit-identical to a batch recompute from full
  history); latency median/p95 come from the sketch and carry its
  documented relative-error bound ``sketch_alpha``. The engine
  additionally releases delivered packets into the latency
  accumulators every ``release_interval`` frames (see
  ``FrameSimulation``), so store memory stays bounded too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.injection.store import PacketSequence
from repro.sim.streaming import (
    DEFAULT_SKETCH_ALPHA,
    DEFAULT_WINDOW,
    StreamingLatency,
    StreamingMoments,
    StreamingSeries,
)

#: Valid retention policies.
RETENTIONS = ("full", "streaming")

#: Frames between delivered-packet releases in streaming mode.
DEFAULT_RELEASE_INTERVAL = 64


@dataclass
class LatencySummary:
    """Latency statistics (in slots) for a set of delivered packets.

    An empty set has ``count == 0`` and ``NaN`` statistics — "no
    packets delivered" must not read like "packets delivered with zero
    latency" (the all-zero summary it used to produce was
    indistinguishable from genuinely instant delivery).
    """

    count: int
    mean: float
    median: float
    p95: float
    maximum: float

    @staticmethod
    def empty() -> "LatencySummary":
        nan = float("nan")
        return LatencySummary(0, nan, nan, nan, nan)

    @staticmethod
    def from_latencies(latencies) -> "LatencySummary":
        """Summary of a raw latency vector (in slots)."""
        latencies = np.asarray(latencies, dtype=float)
        if latencies.size == 0:
            return LatencySummary.empty()
        return LatencySummary(
            count=int(latencies.size),
            mean=float(latencies.mean()),
            median=float(np.median(latencies)),
            p95=float(np.percentile(latencies, 95)),
            maximum=float(latencies.max()),
        )

    @staticmethod
    def from_packets(packets: PacketSequence) -> "LatencySummary":
        """Summary of a delivered set: one vectorized gather."""
        if len(packets) == 0:
            return LatencySummary.empty()
        return LatencySummary.from_latencies(
            packets.store.latencies(packets.indices)
        )


def _checked_count(value, name: str) -> int:
    """A non-negative integral value, or a per-field error.

    Booleans are rejected explicitly — ``int(True)`` would silently
    read a malformed snapshot as frame/packet counts of 1.
    """
    if isinstance(value, (bool, np.bool_)):
        raise ConfigurationError(
            f"metrics state '{name}' must be a non-negative integer, "
            f"got {value!r}"
        )
    try:
        result = int(value)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(
            f"metrics state '{name}' must be a non-negative integer, "
            f"got {value!r}"
        ) from exc
    if result != value or result < 0:
        raise ConfigurationError(
            f"metrics state '{name}' must be a non-negative integer, "
            f"got {value!r}"
        )
    return result


@dataclass
class MetricsRecorder:
    """Per-frame series plus end-of-run summaries.

    In ``streaming`` retention the six series lists stay empty —
    per-frame values fold into bounded accumulators instead, and the
    summary accessors (``final_queue``, ``max_queue``, ``mean_queue``,
    ``delivered_count``, ``stability_verdict``, ``latency_summary``)
    answer from those. ``recent_queue_series`` exposes the ring window
    (the newest ``window`` frames) for sparklines and debugging.
    """

    frames: int = 0
    injected_total: int = 0
    queue_series: List[int] = field(default_factory=list)
    active_series: List[int] = field(default_factory=list)
    failed_series: List[int] = field(default_factory=list)
    potential_series: List[int] = field(default_factory=list)
    delivered_series: List[int] = field(default_factory=list)
    injected_series: List[int] = field(default_factory=list)
    retention: str = "full"
    window: int = DEFAULT_WINDOW
    release_interval: int = DEFAULT_RELEASE_INTERVAL
    sketch_alpha: float = DEFAULT_SKETCH_ALPHA

    #: Streaming-mode aux series tracked as plain moments.
    _AUX = ("active", "failed", "potential")

    def __post_init__(self):
        if self.retention not in RETENTIONS:
            raise ConfigurationError(
                f"metrics retention must be one of {', '.join(RETENTIONS)}, "
                f"got {self.retention!r}"
            )
        if self.release_interval < 1:
            raise ConfigurationError(
                f"metrics release_interval must be >= 1, "
                f"got {self.release_interval}"
            )
        if self.retention == "streaming":
            self._queue = StreamingSeries(self.window)
            self._aux = {name: StreamingMoments() for name in self._AUX}
            self._latency = StreamingLatency(self.sketch_alpha)
            self._delivered_total = 0
        else:
            self._queue = None
            self._aux = None
            self._latency = None
            self._delivered_total = 0

    @property
    def streaming(self) -> bool:
        return self.retention == "streaming"

    def record_frame(
        self,
        injected: int,
        in_system: int,
        active: int,
        failed: int,
        potential: int,
        delivered_total: int,
    ) -> None:
        self.frames += 1
        self.injected_total += injected
        if self._queue is not None:
            self._queue.push(in_system)
            aux = self._aux
            aux["active"].push(active)
            aux["failed"].push(failed)
            aux["potential"].push(potential)
            self._delivered_total = delivered_total
            return
        self.injected_series.append(injected)
        self.queue_series.append(in_system)
        self.active_series.append(active)
        self.failed_series.append(failed)
        self.potential_series.append(potential)
        self.delivered_series.append(delivered_total)

    # ------------------------------------------------------------------
    # Streaming-mode feeds (the engine's summarize-and-release hook)
    # ------------------------------------------------------------------

    def absorb_latencies(
        self, latencies: np.ndarray, path_lengths: np.ndarray
    ) -> None:
        """Fold released delivered-packet latencies into the sketch.

        Streaming mode only — in full retention the delivered set is
        kept whole and summarised at the end, exactly as before.
        """
        if self._latency is None:
            raise ConfigurationError(
                "absorb_latencies is a streaming-retention operation; "
                "this recorder retains full history"
            )
        self._latency.absorb(latencies, path_lengths)

    @property
    def released_count(self) -> int:
        """Delivered latencies already folded (0 in full retention)."""
        return self._latency.count if self._latency is not None else 0

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------

    _SERIES = (
        "queue_series",
        "active_series",
        "failed_series",
        "potential_series",
        "delivered_series",
        "injected_series",
    )

    def state_dict(self) -> dict:
        if self._queue is not None:
            return {
                "retention": "streaming",
                "frames": self.frames,
                "injected_total": self.injected_total,
                "delivered_total": self._delivered_total,
                "window": self.window,
                "release_interval": self.release_interval,
                "sketch_alpha": self.sketch_alpha,
                "queue": self._queue.state_dict(),
                "aux": {
                    name: acc.state_dict()
                    for name, acc in self._aux.items()
                },
                "latency": self._latency.state_dict(),
            }
        state = {"frames": self.frames, "injected_total": self.injected_total}
        for name in self._SERIES:
            state[name] = list(getattr(self, name))
        return state

    def load_state_dict(self, state: dict) -> None:
        if not isinstance(state, dict):
            raise ConfigurationError(
                f"metrics state must be a mapping, got {type(state).__name__}"
            )
        stored_streaming = state.get("retention") == "streaming"
        if stored_streaming != (self._queue is not None):
            stored = "streaming" if stored_streaming else "full"
            raise ConfigurationError(
                f"checkpoint metrics were recorded with retention="
                f"'{stored}' but this recorder is configured with "
                f"retention='{self.retention}'"
            )
        if stored_streaming:
            self._load_streaming_state(state)
            return
        try:
            frames = _checked_count(state["frames"], "frames")
            injected_total = _checked_count(
                state["injected_total"], "injected_total"
            )
            series = {}
            for name in self._SERIES:
                values = state[name]
                series[name] = [
                    _checked_count(v, name) for v in values
                ]
        except KeyError as exc:
            raise ConfigurationError(
                f"metrics state is missing {exc}"
            ) from exc
        except TypeError as exc:
            raise ConfigurationError(f"invalid metrics state: {exc}") from exc
        for name, values in series.items():
            if len(values) != frames:
                raise ConfigurationError(
                    f"metrics state '{name}' has {len(values)} entries for "
                    f"{frames} frames"
                )
        self.frames = frames
        self.injected_total = injected_total
        for name, values in series.items():
            setattr(self, name, values)

    def _load_streaming_state(self, state: dict) -> None:
        try:
            frames = _checked_count(state["frames"], "frames")
            injected_total = _checked_count(
                state["injected_total"], "injected_total"
            )
            delivered_total = _checked_count(
                state["delivered_total"], "delivered_total"
            )
            window = _checked_count(state["window"], "window")
            release_interval = _checked_count(
                state["release_interval"], "release_interval"
            )
            sketch_alpha = float(state["sketch_alpha"])
            queue_state = state["queue"]
            aux_state = state["aux"]
            latency_state = state["latency"]
        except KeyError as exc:
            raise ConfigurationError(
                f"streaming metrics state is missing {exc}"
            ) from exc
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"invalid streaming metrics state: {exc}"
            ) from exc
        if (
            window != self.window
            or release_interval != self.release_interval
            or sketch_alpha != self.sketch_alpha
        ):
            raise ConfigurationError(
                f"streaming metrics state was written for window={window}, "
                f"release_interval={release_interval}, sketch_alpha="
                f"{sketch_alpha}; this recorder is configured for "
                f"window={self.window}, release_interval="
                f"{self.release_interval}, sketch_alpha={self.sketch_alpha}"
            )
        if not isinstance(aux_state, dict) or set(aux_state) != set(
            self._AUX
        ):
            raise ConfigurationError(
                "streaming metrics state 'aux' must hold exactly "
                f"{sorted(self._AUX)}"
            )
        self._queue.load_state_dict(queue_state)
        for name in self._AUX:
            self._aux[name].load_state_dict(aux_state[name])
        self._latency.load_state_dict(latency_state)
        self.frames = frames
        self.injected_total = injected_total
        self._delivered_total = delivered_total

    # ------------------------------------------------------------------
    # Summaries
    # ------------------------------------------------------------------

    @property
    def final_queue(self) -> int:
        if self._queue is not None:
            return self._queue.last
        return self.queue_series[-1] if self.queue_series else 0

    @property
    def max_queue(self) -> int:
        if self._queue is not None:
            return int(self._queue.maximum) if self._queue.count else 0
        return max(self.queue_series) if self.queue_series else 0

    def mean_queue(self, tail_fraction: float = 0.5) -> float:
        """Mean in-system count over the trailing fraction of the run.

        ``tail_fraction`` must lie in ``(0, 1]`` — values above 1 used
        to produce a negative slice start that silently averaged a
        window *from the tail end*, reporting a wrong (and smaller)
        window as if it were the requested one. In streaming retention
        the tail is additionally clipped to the ring window (exact
        equality with full retention while ``frames <= window``).
        """
        if not 0.0 < tail_fraction <= 1.0:
            raise ConfigurationError(
                f"tail_fraction must be in (0, 1], got {tail_fraction}"
            )
        if self._queue is not None:
            return self._queue.tail_mean(tail_fraction)
        if not self.queue_series:
            return 0.0
        start = int(len(self.queue_series) * (1.0 - tail_fraction))
        return float(np.mean(self.queue_series[start:]))

    def recent_queue_series(self) -> List[int]:
        """The queue series available for display.

        The whole history in full retention; the newest ``window``
        frames (the ring contents) in streaming retention.
        """
        if self._queue is not None:
            return self._queue.values().tolist()
        return self.queue_series

    def delivered_count(self) -> int:
        if self._queue is not None:
            return self._delivered_total
        return self.delivered_series[-1] if self.delivered_series else 0

    def throughput(self) -> float:
        """Delivered packets per frame."""
        if self.frames == 0:
            return 0.0
        return self.delivered_count() / self.frames

    def stability_verdict(self, load_per_frame: float = 1.0, **kwargs):
        """Drift/blow-up verdict over the recorded queue series.

        Full retention calls :func:`~repro.sim.stability.assess_stability`
        on the whole series — byte-identical to the historical direct
        call. Streaming retention uses
        :func:`~repro.sim.stability.assess_stability_streaming` on the
        bounded queue tracker (exact delegation while the run fits the
        window, the windowed detector beyond).
        """
        from repro.sim.stability import (
            assess_stability,
            assess_stability_streaming,
        )

        if self._queue is not None:
            return assess_stability_streaming(
                self._queue, load_per_frame=load_per_frame, **kwargs
            )
        return assess_stability(
            self.queue_series, load_per_frame=load_per_frame, **kwargs
        )

    @staticmethod
    def _pending_latencies(
        delivered: PacketSequence,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(latencies, path lengths) of not-yet-released delivered."""
        if len(delivered) == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        indices = delivered.indices
        store = delivered.store
        return store.latencies(indices), store.path_lengths(indices)

    def latency_summary(self, delivered: PacketSequence) -> LatencySummary:
        """Latency statistics over every delivered packet of the run.

        Full retention summarises ``delivered`` directly. Streaming
        retention merges the already-released accumulators with the
        still-pending delivered set (without mutating either, so the
        call is idempotent): count/mean/max are exact, median/p95 come
        from the quantile sketch (relative error ``sketch_alpha``
        against the nearest-rank order statistic).
        """
        if self._latency is not None:
            pending, _ = self._pending_latencies(delivered)
            merged = self._latency.merged_stats(pending)
            if merged is None:
                return LatencySummary.empty()
            count, mean, median, p95, maximum = merged
            return LatencySummary(count, mean, median, p95, maximum)
        return LatencySummary.from_packets(delivered)

    def latency_by_path_length(
        self, delivered: PacketSequence
    ) -> Dict[int, LatencySummary]:
        """Latency statistics grouped by path length (for Theorem 8)."""
        if self._latency is not None:
            pending, lengths = self._pending_latencies(delivered)
            return {
                length: LatencySummary(*stats)
                for length, stats in self._latency.merged_stats_by_length(
                    pending, lengths
                ).items()
            }
        latencies, lengths = self._pending_latencies(delivered)
        return {
            int(d): LatencySummary.from_latencies(latencies[lengths == d])
            for d in np.unique(lengths)
        }


__all__ = [
    "DEFAULT_RELEASE_INTERVAL",
    "LatencySummary",
    "MetricsRecorder",
    "RETENTIONS",
]
