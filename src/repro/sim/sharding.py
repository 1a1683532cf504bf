"""Executors: map picklable work units in order, in-process or in a pool.

Every paper table bottoms out in a rate sweep, and each (rate, seed)
cell is an independent simulation — embarrassingly parallel. A cell is
a :class:`~repro.scenario.fleet.FleetUnit`: a
:class:`~repro.scenario.spec.ScenarioSpec` with the cell's rate and
seed applied (:func:`~repro.scenario.fleet.sweep_units`). An executor
maps ``unit.run()`` over a list of units and returns the results in
input order, so the fold
(:func:`repro.sim.runner.aggregate_rate_sweep` for sweeps,
:func:`~repro.scenario.fleet.aggregate_fleet` for fleets) is
record-for-record identical whichever executor ran the units.

There are two: :class:`SerialExecutor` runs the units in this process,
and :class:`~repro.sim.resilience.FaultTolerantExecutor` runs them in
one process pool. ``process`` is that pool with no retries and no
manifest: a failed cell or a dead worker raises
:class:`~repro.errors.ConfigurationError` naming the cell; ``resilient``
adds retries, per-cell timeouts, quarantine and the manifest.

**Seeding.** Nothing random crosses a process boundary: each unit
rebuilds its network, protocol and injection from the spec's own seed
inside the worker. Same units, any executor, any worker count => same
records.
"""

from __future__ import annotations

import os
from typing import List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.sim.runner import CellResult


def default_worker_count() -> int:
    """CPUs actually available to this process (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


class SerialExecutor:
    """The trivial in-process executor: ``map`` is a list comprehension."""

    name = "serial"
    workers = 1

    def map(self, cells: Sequence) -> List[CellResult]:
        return [cell.run() for cell in cells]


EXECUTORS = ("serial", "process", "resilient")


def executor_names() -> List[str]:
    return list(EXECUTORS)


def make_executor(kind: str, workers: Optional[int] = None, **kwargs):
    """Build an executor by CLI name (see :data:`EXECUTORS`).

    ``process`` is the fault-tolerant pool with ``max_retries=0``: strict,
    no manifest. Extra keyword arguments are forwarded to the resilient
    executor (``max_retries``, ``cell_timeout``, ``manifest``,
    ``resume``, ...); ``serial`` and ``process`` accept none.
    """
    if kind not in EXECUTORS:
        raise ConfigurationError(
            f"unknown executor '{kind}'; choose from {', '.join(EXECUTORS)}"
        )
    if kwargs and kind != "resilient":
        raise ConfigurationError(
            f"the {kind} executor takes no extra options"
        )
    if kind == "serial":
        return SerialExecutor()
    # Imported lazily: ``import repro`` and the serial path should not
    # pay for the pool's imports.
    from repro.sim.resilience import FaultTolerantExecutor

    if kind == "process":
        return FaultTolerantExecutor(workers=workers, max_retries=0)
    return FaultTolerantExecutor(workers=workers, **kwargs)


__all__ = [
    "EXECUTORS",
    "SerialExecutor",
    "default_worker_count",
    "executor_names",
    "make_executor",
]
