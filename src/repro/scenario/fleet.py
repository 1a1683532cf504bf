"""The multi-network fleet runner: one process per network.

A *fleet* is a list of :class:`~repro.scenario.spec.ScenarioSpec` — a
whole distribution of networks evaluated as one campaign, the workload
back-pressure-style evaluation practice runs for every data point
(many topologies per configuration). Each spec is an independent
simulation of its own network, so the fleet maps over any executor
from :mod:`repro.sim.sharding`: in-process, or one worker process per
network. Workers rebuild their network *inside* the worker from the
spec's seed — nothing random crosses a process boundary, and the fold
is input-ordered, so a process fleet is record-for-record identical to
the serial loop.

Per-network outcomes are the same
:class:`~repro.sim.runner.CellResult` a sweep cell produces;
:func:`aggregate_fleet` folds them into a :class:`FleetResult` with
cross-network summary statistics (nan-aware on latency, like the
sweep aggregation).

A rate sweep is a fleet too: :func:`sweep_units` turns one spec and a
(rate, seed) grid into fleet units, and
``aggregate_rate_sweep(executor.map(units))`` folds them per rate.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, List, Mapping, Optional, Sequence, Union

import numpy as np

from repro.errors import ConfigurationError
from repro.scenario.spec import ScenarioSpec
from repro.sim.runner import CellResult
from repro.sim.sharding import SerialExecutor


@dataclass(frozen=True)
class FleetUnit:
    """One picklable fleet work unit: a spec and its position.

    The position doubles as the record's ``rate_index`` so results keep
    their spec order through any executor (the aggregation relies on
    order-preserving maps, exactly like the sweep path).

    With ``checkpoint_path`` set, the unit runs resumably: a crash or
    interruption loses at most ``snapshot_interval`` frames, and a
    retry (or a resumed fleet) picks up from the last snapshot.
    """

    spec: ScenarioSpec
    index: int
    checkpoint_path: Optional[str] = None
    snapshot_interval: Optional[int] = None

    def with_checkpoint(
        self, path: str, interval: Optional[int] = None
    ) -> "FleetUnit":
        """A copy of this unit that checkpoints to ``path``."""
        return FleetUnit(
            spec=self.spec,
            index=self.index,
            checkpoint_path=path,
            snapshot_interval=interval,
        )

    def run(self) -> CellResult:
        return self.spec.run(
            rate_index=self.index,
            checkpoint_path=self.checkpoint_path,
            snapshot_interval=self.snapshot_interval,
        )


@dataclass(frozen=True)
class FleetSummary:
    """Cross-network statistics over one fleet's records."""

    networks: int
    stable_fraction: float
    mean_tail_queue: float
    mean_throughput: float
    mean_latency: float
    total_injected: int
    total_delivered: int


@dataclass
class FleetResult:
    """Per-spec records (spec order) plus the cross-network summary."""

    records: List[CellResult]
    summary: FleetSummary


def aggregate_fleet(results: Sequence[CellResult]) -> FleetResult:
    """Fold per-network results into a :class:`FleetResult`.

    Seeds that delivered nothing report NaN latency; they carry no
    latency information, so the summary averages over the networks
    that did deliver (NaN only if none did) — the same convention as
    :func:`repro.sim.runner.aggregate_rate_sweep`.
    """
    records = list(results)
    if not records:
        raise ConfigurationError("cannot aggregate an empty fleet")
    latencies = [r.latency for r in records if not math.isnan(r.latency)]
    summary = FleetSummary(
        networks=len(records),
        stable_fraction=float(
            np.mean([1.0 if r.verdict.stable else 0.0 for r in records])
        ),
        mean_tail_queue=float(np.mean([r.tail_queue for r in records])),
        mean_throughput=float(np.mean([r.throughput for r in records])),
        mean_latency=(
            float(np.mean(latencies)) if latencies else float("nan")
        ),
        total_injected=int(sum(r.injected for r in records)),
        total_delivered=int(sum(r.delivered for r in records)),
    )
    return FleetResult(records=records, summary=summary)


def run_scenario_fleet(
    specs: Sequence[ScenarioSpec],
    executor=None,
    metrics: Optional[str] = None,
) -> FleetResult:
    """Run every spec and aggregate — the ROADMAP's per-network sharder.

    ``executor`` is anything with ``map(units) -> results`` over
    ``unit.run()`` work units (:class:`~repro.sim.sharding.SerialExecutor`
    by default; pass ``make_executor("process", workers)`` to run the
    networks in one process pool, which raises naming any network whose
    run failed). Any executor produces identical records —
    as does either ``metrics`` retention policy: ``metrics`` (when
    given) overrides every spec's retention, and ``"streaming"`` caps
    each worker's memory at O(window) regardless of the horizon.
    """
    if metrics is not None:
        specs = [spec.replace(metrics=metrics) for spec in specs]
    units = [
        FleetUnit(spec=spec, index=index) for index, spec in enumerate(specs)
    ]
    if not units:
        raise ConfigurationError("a fleet needs at least one scenario spec")
    if executor is None:
        executor = SerialExecutor()
    return aggregate_fleet(executor.map(units))


def sweep_units(
    spec: ScenarioSpec, rates: Iterable[float], seeds: Iterable[int]
) -> List[FleetUnit]:
    """Flatten a (rate, seed) grid over ``spec`` into rate-major units.

    Each unit runs ``spec`` at one absolute ``rate`` and one ``seed``;
    its index is the rate's position, so duplicate rates stay distinct
    rows in :func:`~repro.sim.runner.aggregate_rate_sweep`. ``rates``
    and ``seeds`` are materialised once, so generators are safe.
    """
    seeds = list(seeds)
    return [
        FleetUnit(
            spec=spec.replace(rate=rate, rate_mode="absolute", seed=seed),
            index=index,
        )
        for index, rate in enumerate(rates)
        for seed in seeds
    ]


def specs_from_data(data: Any) -> List[ScenarioSpec]:
    """Parse spec-file payloads: one spec dict, a list, or {"specs": [...]}."""
    if isinstance(data, Mapping) and "specs" in data:
        data = data["specs"]
    if isinstance(data, Mapping):
        data = [data]
    if not isinstance(data, Sequence) or isinstance(data, (str, bytes)):
        raise ConfigurationError(
            "a spec file holds one spec object, a list of them, or "
            '{"specs": [...]}'
        )
    return [ScenarioSpec.from_dict(item) for item in data]


def load_specs(path: Union[str, Path]) -> List[ScenarioSpec]:
    """Read a JSON spec file (see :func:`specs_from_data` for shapes)."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigurationError(f"cannot read spec file '{path}': {exc}")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"spec file '{path}' is not valid JSON: {exc}")
    return specs_from_data(data)


__all__ = [
    "FleetResult",
    "FleetSummary",
    "FleetUnit",
    "aggregate_fleet",
    "load_specs",
    "run_scenario_fleet",
    "specs_from_data",
    "sweep_units",
]
