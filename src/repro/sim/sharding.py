"""Executors: map picklable work units over processes, order-preserving.

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

**Seeding.** Nothing random crosses a process boundary: each unit
rebuilds its network, protocol and injection from the spec's own seed
inside the worker. Same units, any executor, any worker count => same
records.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
from typing import List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.sim.runner import CellResult


def _run_unit(cell) -> CellResult:
    """Module-level trampoline so Pool.map can pickle the call."""
    return cell.run()


def default_worker_count() -> int:
    """CPUs actually available to this process (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def _default_start_method() -> Optional[str]:
    # On Linux, fork inherits the component registry (test-local
    # components included) and skips re-importing numpy per worker.
    # Elsewhere the platform default stands — macOS offers fork but
    # deliberately defaults to spawn because forking a
    # threaded/Objective-C parent is unsafe; spawn workers recover
    # registrations via each spec's ``requires`` imports.
    if (
        sys.platform.startswith("linux")
        and "fork" in multiprocessing.get_all_start_methods()
    ):
        return "fork"
    return None


class SerialExecutor:
    """The trivial in-process executor: ``map`` is a list comprehension."""

    name = "serial"
    workers = 1

    def map(self, cells: Sequence) -> List[CellResult]:
        return [cell.run() for cell in cells]


class ProcessExecutor:
    """Map cells over a ``multiprocessing`` pool, order-preserving.

    ``chunksize=1`` keeps scheduling dynamic — sweep cells near the
    stability boundary can cost many times more than cells far below
    it, so static chunking would leave workers idle. Results come back
    in spec order regardless, which the aggregation relies on for
    bit-parity with the serial path.
    """

    name = "process"

    def __init__(
        self,
        workers: Optional[int] = None,
        start_method: Optional[str] = None,
    ):
        if workers is not None and workers < 1:
            raise ConfigurationError(
                f"workers must be >= 1, got {workers}"
            )
        self.workers = workers or default_worker_count()
        self._start_method = start_method

    def map(self, cells: Sequence) -> List[CellResult]:
        cells = list(cells)
        if not cells:
            return []
        workers = min(self.workers, len(cells))
        context = multiprocessing.get_context(
            self._start_method or _default_start_method()
        )
        with context.Pool(processes=workers) as pool:
            return pool.map(_run_unit, cells, chunksize=1)


EXECUTORS = ("serial", "process", "resilient", "batched")


def executor_names() -> List[str]:
    return list(EXECUTORS)


def make_executor(kind: str, workers: Optional[int] = None, **kwargs):
    """Build an executor by CLI name (see :data:`EXECUTORS`).

    Extra keyword arguments are forwarded to the resilient executor
    (``max_retries``, ``cell_timeout``, ``manifest``, ``resume``, ...)
    and to the batched executor (``strict``); the plain executors
    accept none.
    """
    if kind == "serial":
        if kwargs:
            raise ConfigurationError(
                "the serial executor takes no extra options"
            )
        return SerialExecutor()
    if kind == "process":
        if kwargs:
            raise ConfigurationError(
                "the process executor takes no extra options"
            )
        return ProcessExecutor(workers=workers)
    if kind == "resilient":
        # Imported lazily: resilience pulls in the scenario layer, and
        # the common serial/process paths should not pay for it.
        from repro.sim.resilience import FaultTolerantExecutor

        return FaultTolerantExecutor(workers=workers, **kwargs)
    if kind == "batched":
        # Imported lazily for the same reason: the batched executor
        # lives in the scenario layer (it batches whole FleetUnits).
        from repro.scenario.batched import BatchedExecutor

        return BatchedExecutor(workers=workers, **kwargs)
    raise ConfigurationError(
        f"unknown executor '{kind}'; choose from {', '.join(EXECUTORS)}"
    )


__all__ = [
    "EXECUTORS",
    "ProcessExecutor",
    "SerialExecutor",
    "default_worker_count",
    "executor_names",
    "make_executor",
]
