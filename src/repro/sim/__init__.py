"""Simulation driver, metrics, stability detection, and executors.

:class:`~repro.sim.engine.FrameSimulation` couples an injection process
with any frame-protocol object (duck-typed: ``run_frame``,
``frame_length``, ``store``, ``packets_in_system``,
``delivered_total``) and records a
:class:`~repro.sim.metrics.MetricsRecorder` time series. The
:mod:`repro.sim.stability` detector turns a queue series into a
stable/unstable verdict; :mod:`repro.sim.runner` reduces one run to a
:class:`~repro.sim.runner.CellResult` and folds sweep cells per rate,
and :mod:`repro.sim.sharding`'s executors map the same cells in-process
or over one process pool (record-for-record identical either way).
:mod:`repro.sim.trace` records per-packet event streams when a
:class:`~repro.sim.trace.Tracer` is attached to a protocol.
"""

from repro.sim.engine import FrameSimulation
from repro.sim.metrics import LatencySummary, MetricsRecorder
from repro.sim.stability import (
    StabilityVerdict,
    assess_stability,
    assess_stability_streaming,
    assess_stability_windowed,
)
from repro.sim.streaming import (
    QuantileSketch,
    RingBuffer,
    StreamingLatency,
    StreamingMoments,
    StreamingSeries,
)
from repro.sim.runner import (
    CellResult,
    RateSweepRecord,
    aggregate_rate_sweep,
    measure_cell,
    simulate_protocol,
)
from repro.sim.sharding import (
    SerialExecutor,
    default_worker_count,
    executor_names,
    make_executor,
)
from repro.sim.trace import (
    EventKind,
    TraceEvent,
    Tracer,
    format_journey,
    packet_journey,
)

__all__ = [
    "FrameSimulation",
    "MetricsRecorder",
    "LatencySummary",
    "StabilityVerdict",
    "assess_stability",
    "assess_stability_streaming",
    "assess_stability_windowed",
    "QuantileSketch",
    "RingBuffer",
    "StreamingLatency",
    "StreamingMoments",
    "StreamingSeries",
    "RateSweepRecord",
    "simulate_protocol",
    "CellResult",
    "aggregate_rate_sweep",
    "measure_cell",
    "SerialExecutor",
    "default_worker_count",
    "executor_names",
    "make_executor",
    "EventKind",
    "TraceEvent",
    "Tracer",
    "packet_journey",
    "format_journey",
]
