"""Experiment runners: one simulation, and the rate-sweep fold.

The benchmark harness shares these helpers so every table is produced
by the same code path: run ``frames`` frames, assess stability,
aggregate across seeds.

A sweep is staged so every executor shares everything but the map
step:

1. **Unit generation** — the (rate, seed) grid becomes a flat list of
   :class:`~repro.scenario.fleet.FleetUnit` work units, one
   :class:`~repro.scenario.spec.ScenarioSpec` per cell
   (:func:`~repro.scenario.fleet.sweep_units`).
2. **Execution** — each unit runs one simulation and reduces it to a
   :class:`CellResult` (:func:`measure_cell`). Any executor from
   :mod:`repro.sim.sharding` maps ``unit.run()`` over the list.
3. **Aggregation** — :func:`aggregate_rate_sweep` folds the flat
   results back into per-rate :class:`RateSweepRecord` rows, in input
   order, so every order-preserving executor yields identical records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.injection.base import InjectionProcess
from repro.sim.engine import FrameSimulation
from repro.sim.stability import StabilityVerdict


def simulate_protocol(
    protocol,
    injection: InjectionProcess,
    frames: int,
    metrics="full",
) -> FrameSimulation:
    """Run one simulation to completion and return the engine."""
    simulation = FrameSimulation(protocol, injection, metrics=metrics)
    simulation.run(frames)
    return simulation


@dataclass(frozen=True)
class CellResult:
    """Everything one (rate, seed) cell contributes to a sweep.

    Produced by :func:`measure_cell` inside whichever process ran the
    cell; only plain floats/ints and the (frozen, picklable)
    :class:`~repro.sim.stability.StabilityVerdict` cross process
    boundaries — never protocol or metrics objects.
    """

    rate_index: int
    rate: float
    seed: int
    verdict: StabilityVerdict
    tail_queue: float
    throughput: float
    latency: float
    frame_length: int
    injected: int
    delivered: int
    failures: int


def measure_cell(
    protocol,
    injection: InjectionProcess,
    frames: int,
    *,
    rate: float,
    seed: int,
    rate_index: int = 0,
    load_from_injected: bool = False,
    metrics="full",
) -> CellResult:
    """Run one cell and reduce it to a :class:`CellResult`.

    The drift detector normalises by ``rate * frame_length`` of the
    built protocol; with ``load_from_injected`` the realised injection
    rate is used instead (the ``compare`` CLI convention for protocols
    run at their own certified rates). ``metrics`` selects the
    retention policy (see :class:`~repro.sim.engine.FrameSimulation`).
    """
    simulation = simulate_protocol(protocol, injection, frames, metrics)
    return summarize_cell(
        protocol,
        simulation.metrics,
        frames,
        rate=rate,
        seed=seed,
        rate_index=rate_index,
        load_from_injected=load_from_injected,
    )


def summarize_cell(
    protocol,
    metrics,
    frames: int,
    *,
    rate: float,
    seed: int,
    rate_index: int = 0,
    load_from_injected: bool = False,
) -> CellResult:
    """Reduce an already-run simulation to a :class:`CellResult`.

    The tail half of :func:`measure_cell`, split out so resumable runs
    (which drive the engine themselves, snapshotting between chunks)
    produce records identical to the one-shot path.
    """
    if load_from_injected:
        load = max(1.0, metrics.injected_total / max(1, frames))
    else:
        load = max(1.0, rate * float(protocol.frame_length))
    # The recorder dispatches on its own retention policy — the batch
    # assessor on full history, the windowed streaming assessor on the
    # bounded tracker. Byte-identical to the old direct
    # assess_stability(metrics.queue_series, ...) call in full mode.
    verdict = metrics.stability_verdict(load_per_frame=load)
    summary = metrics.latency_summary(protocol.delivered)
    potential = getattr(protocol, "potential", None)
    return CellResult(
        rate_index=rate_index,
        rate=rate,
        seed=seed,
        verdict=verdict,
        tail_queue=metrics.mean_queue(),
        throughput=metrics.throughput(),
        latency=summary.mean,
        frame_length=int(protocol.frame_length),
        injected=metrics.injected_total,
        delivered=metrics.delivered_count(),
        failures=(
            int(potential.total_failures) if potential is not None else 0
        ),
    )


@dataclass
class RateSweepRecord:
    """Aggregated outcome of one (rate, seeds) sweep cell."""

    rate: float
    seeds: int
    stable_fraction: float
    mean_tail_queue: float
    mean_throughput: float
    mean_latency: float
    verdicts: List[StabilityVerdict] = field(default_factory=list)

    @property
    def stable(self) -> bool:
        """Majority verdict across seeds."""
        return self.stable_fraction >= 0.5


def aggregate_rate_sweep(
    results: Sequence[CellResult],
) -> List[RateSweepRecord]:
    """Fold flat cell results into per-rate records.

    Cells are grouped by ``rate_index`` (so duplicate rate values stay
    distinct rows) and averaged in input order — an order-preserving
    executor therefore yields bit-identical records to the serial path.
    """
    groups: dict = {}
    for result in results:
        groups.setdefault(result.rate_index, []).append(result)
    records: List[RateSweepRecord] = []
    for index in sorted(groups):
        cells = groups[index]
        mixed = {cell.rate for cell in cells} - {cells[0].rate}
        if mixed:
            # Hand-built units that forgot distinct rate_index values
            # would otherwise be silently averaged into one wrong row.
            raise ConfigurationError(
                f"cells with rate_index {index} mix rates "
                f"{sorted({cells[0].rate, *mixed})}; give each rate its "
                "own rate_index (sweep_units does this automatically)"
            )
        verdicts = [cell.verdict for cell in cells]
        latencies = [cell.latency for cell in cells]
        # Seeds that delivered nothing have NaN latency summaries; they
        # carry no latency information, so average over the seeds that
        # did deliver (NaN only if none did).
        observed = [value for value in latencies if not math.isnan(value)]
        records.append(
            RateSweepRecord(
                rate=cells[0].rate,
                seeds=len(cells),
                stable_fraction=float(
                    np.mean([1.0 if v.stable else 0.0 for v in verdicts])
                ),
                mean_tail_queue=float(
                    np.mean([cell.tail_queue for cell in cells])
                ),
                mean_throughput=float(
                    np.mean([cell.throughput for cell in cells])
                ),
                mean_latency=(
                    float(np.mean(observed)) if observed else float("nan")
                ),
                verdicts=verdicts,
            )
        )
    return records


__all__ = [
    "simulate_protocol",
    "RateSweepRecord",
    "CellResult",
    "measure_cell",
    "summarize_cell",
    "aggregate_rate_sweep",
]
