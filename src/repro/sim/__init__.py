"""Simulation driver, metrics, stability detection, and sweep sharding.

:class:`~repro.sim.engine.FrameSimulation` couples an injection process
with any frame-protocol object (duck-typed: ``run_frame``,
``frame_length``, ``store``, ``packets_in_system``,
``delivered_total``) and records a
:class:`~repro.sim.metrics.MetricsRecorder` time series. The
:mod:`repro.sim.stability` detector turns a queue series into a
stable/unstable verdict; :mod:`repro.sim.runner` sweeps rates and seeds
for the benchmarks, staged as spec generation / cell execution /
aggregation so :mod:`repro.sim.sharding` can map the same cells over
process pools (record-for-record identical to the serial path).
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
    FactoryCell,
    RateSweepRecord,
    aggregate_rate_sweep,
    build_factory_cells,
    measure_cell,
    run_rate_sweep,
    simulate_protocol,
)
from repro.sim.sharding import (
    CellSpec,
    ProcessExecutor,
    SerialExecutor,
    default_worker_count,
    executor_names,
    make_executor,
    register_injection_builder,
    register_pair_builder,
    register_protocol_builder,
    run_cell,
    run_sharded_sweep,
    sweep_specs,
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
    "run_rate_sweep",
    "RateSweepRecord",
    "simulate_protocol",
    "CellResult",
    "FactoryCell",
    "aggregate_rate_sweep",
    "build_factory_cells",
    "measure_cell",
    "CellSpec",
    "ProcessExecutor",
    "SerialExecutor",
    "default_worker_count",
    "executor_names",
    "make_executor",
    "register_injection_builder",
    "register_pair_builder",
    "register_protocol_builder",
    "run_cell",
    "run_sharded_sweep",
    "sweep_specs",
    "EventKind",
    "TraceEvent",
    "Tracer",
    "packet_journey",
    "format_journey",
]
