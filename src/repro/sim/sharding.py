"""Sharded sweep execution: process-parallel (rate, seed) cells.

Every paper table bottoms out in a rate sweep, and each (rate, seed)
cell is an independent simulation — embarrassingly parallel. This
module turns a sweep into a flat list of picklable :class:`CellSpec`
work units and maps them over ``multiprocessing`` workers, then folds
the results through the *same* aggregation code the serial path uses
(:func:`repro.sim.runner.aggregate_rate_sweep`), so a sharded sweep is
record-for-record identical to a serial one.

**Why specs instead of closures.** ``run_rate_sweep`` factories are
usually closures over live network/model objects; closures do not
pickle. A :class:`CellSpec` instead *names* its protocol and injection
builders in a registry (or by ``"module:function"`` dotted path) and
carries only plain data — rate, seed, frames, keyword arguments — so
it crosses process boundaries cheaply and deterministically.

**Seeding.** Nothing random crosses a process boundary: each cell's
builders derive every RNG stream from the spec's own ``seed`` inside
the worker (child-seeded per cell), exactly as the serial loop does.
Same specs, any executor, any worker count => same records.

Builders::

    @register_protocol_builder("my-protocol")
    def my_protocol(rate, seed, **kwargs): ...          # -> protocol

    @register_injection_builder("my-injection")
    def my_injection(rate, seed, protocol, **kwargs): ...  # -> injection

    @register_pair_builder("my-pair")                   # when the two
    def my_pair(rate, seed, **kwargs): ...              # are built
        return protocol, injection                      # together

A protocol from a separate protocol builder is built without
``store=``; the cell's :class:`~repro.sim.engine.FrameSimulation`
binds it to the injection's ``PacketStore``. Pair builders exist for
cells whose protocol and injection are built together from shared
pieces (one network, one store).

All three registries are views into the unified component registry
(:mod:`repro.scenario.registry`), the same table the declarative
:class:`~repro.scenario.spec.ScenarioSpec` layer resolves through. A
cell can therefore also carry a *whole network scenario* across the
process boundary (``CellSpec(scenario=...)`` / ``sweep_specs(...,
scenario=...)``) instead of naming protocol/injection builders.
"""

from __future__ import annotations

import importlib
import multiprocessing
import os
import sys
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.scenario.registry import register as _register_component
from repro.scenario.registry import resolve as _resolve_component
from repro.sim.runner import (
    CellResult,
    RateSweepRecord,
    aggregate_rate_sweep,
    measure_cell,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.scenario.spec import ScenarioSpec

# ----------------------------------------------------------------------
# Builder registries — thin adapters over the unified component
# registry (repro.scenario.registry): the cell builders live in the
# same table the declarative ScenarioSpec layer resolves through, under
# the ``cell-protocol`` / ``cell-injection`` / ``cell-pair`` kinds.
# ----------------------------------------------------------------------


def register_protocol_builder(name: str, builder: Optional[Callable] = None):
    """Register ``builder(rate, seed, **kwargs) -> protocol`` under ``name``.

    Usable as a decorator (``builder`` omitted) or a direct call.
    Re-registering the same callable under the same name is a no-op;
    a different callable raises.
    """
    return _register_component("cell-protocol", name, builder)


def register_injection_builder(name: str, builder: Optional[Callable] = None):
    """Register ``builder(rate, seed, protocol, **kwargs) -> injection``."""
    return _register_component("cell-injection", name, builder)


def register_pair_builder(name: str, builder: Optional[Callable] = None):
    """Register ``builder(rate, seed, **kwargs) -> (protocol, injection)``."""
    return _register_component("cell-pair", name, builder)


def resolve_protocol_builder(name: str) -> Callable:
    return _resolve_component("cell-protocol", name, label="protocol builder")


def resolve_injection_builder(name: str) -> Callable:
    return _resolve_component(
        "cell-injection", name, label="injection builder"
    )


def resolve_pair_builder(name: str) -> Callable:
    return _resolve_component("cell-pair", name, label="pair builder")


# ----------------------------------------------------------------------
# Cell specs
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CellSpec:
    """One picklable (rate, seed) work unit of a sweep.

    Either ``scenario`` carries a whole declarative
    :class:`~repro.scenario.spec.ScenarioSpec` (network description
    included — the cell rebuilds the network inside its worker with
    the cell's own rate and seed), or ``pair`` / both ``protocol`` and
    ``injection`` name a registered builder (or a
    ``"module:function"`` dotted path).
    ``requires`` lists modules to import before resolving — the modules
    whose import registers the builders — which makes specs robust
    under spawn-style workers that do not inherit the parent registry.

    ``backend`` optionally pins the run-loop backend
    (:data:`repro.staticsched.runloop.BACKENDS`) for the cell's
    simulation. It rides inside the spec so the choice survives any
    process boundary (spawn workers included) — though because every
    backend replays the scalar reference bit for bit, the choice can
    never change a record, only its wall-clock.
    """

    rate: float
    seed: int
    frames: int
    rate_index: int = 0
    protocol: Optional[str] = None
    injection: Optional[str] = None
    pair: Optional[str] = None
    scenario: Optional["ScenarioSpec"] = None
    protocol_kwargs: dict = field(default_factory=dict)
    injection_kwargs: dict = field(default_factory=dict)
    pair_kwargs: dict = field(default_factory=dict)
    load_per_frame: Optional[float] = None
    load_from_injected: bool = False
    requires: Tuple[str, ...] = ()
    backend: Optional[str] = None
    metrics: Optional[str] = None

    def __post_init__(self):
        if self.frames < 1:
            raise ConfigurationError(
                f"cell frames must be >= 1, got {self.frames}"
            )
        if self.metrics is not None:
            from repro.sim.metrics import RETENTIONS

            if self.metrics not in RETENTIONS:
                raise ConfigurationError(
                    f"cell metrics must be one of {', '.join(RETENTIONS)}, "
                    f"got {self.metrics!r}"
                )
        named = [
            kind
            for kind, value in (
                ("scenario", self.scenario),
                ("pair", self.pair),
                ("protocol+injection", self.protocol or self.injection),
            )
            if value is not None
        ]
        if len(named) > 1:
            raise ConfigurationError(
                "a cell names exactly one construction path — a scenario "
                "spec, a pair builder, or a protocol+injection builder "
                f"pair — got {', '.join(named)}"
            )
        if self.scenario is None and self.pair is None and (
            self.protocol is None or self.injection is None
        ):
            raise ConfigurationError(
                "a cell must carry a scenario spec, name a pair builder, "
                "or name both a protocol and an injection builder"
            )
        if self.scenario is not None and not self.rate > 0:
            # The scenario layer provisions its protocol from the
            # cell's rate, and Section-4 frame sizing needs rate > 0;
            # fail at spec-generation, not mid-sweep inside a worker.
            raise ConfigurationError(
                f"a scenario-carrying cell needs rate > 0, got {self.rate}"
            )

    def run(self) -> CellResult:
        return run_cell(self)


def run_cell(spec: CellSpec) -> CellResult:
    """Build and measure one cell (in whichever process this runs)."""
    from contextlib import nullcontext

    from repro.staticsched.runloop import use_backend

    for module in spec.requires:
        importlib.import_module(module)
    if spec.scenario is not None:
        # The cell's (rate, seed, frames) are the sweep axes: they
        # override the carried scenario's own values, and the cell's
        # rate is always absolute (sweeps resolve certified-rate
        # fractions at spec-generation time). Backend pinning happens
        # inside ScenarioSpec.run.
        effective = spec.scenario.replace(
            rate=spec.rate,
            rate_mode="absolute",
            seed=spec.seed,
            frames=spec.frames,
            backend=spec.backend or spec.scenario.backend,
            load_from_injected=(
                spec.load_from_injected or spec.scenario.load_from_injected
            ),
            metrics=spec.metrics or spec.scenario.metrics,
        )
        return effective.run(
            rate_index=spec.rate_index, load_per_frame=spec.load_per_frame
        )
    # Only pin a backend when the spec names one: a None backend keeps
    # whatever selection is ambient (so e.g. a scalar-reference
    # verification context still governs in-process cells).
    with use_backend(spec.backend) if spec.backend else nullcontext():
        if spec.pair is not None:
            protocol, injection = resolve_pair_builder(spec.pair)(
                spec.rate, spec.seed, **spec.pair_kwargs
            )
        else:
            protocol = resolve_protocol_builder(spec.protocol)(
                spec.rate, spec.seed, **spec.protocol_kwargs
            )
            injection = resolve_injection_builder(spec.injection)(
                spec.rate, spec.seed, protocol, **spec.injection_kwargs
            )
        return measure_cell(
            protocol,
            injection,
            spec.frames,
            rate=spec.rate,
            seed=spec.seed,
            rate_index=spec.rate_index,
            load_per_frame=spec.load_per_frame,
            load_from_injected=spec.load_from_injected,
            metrics=spec.metrics or "full",
        )


def sweep_specs(
    rates: Sequence[float],
    seeds: Sequence[int],
    frames: int,
    *,
    protocol: Optional[str] = None,
    injection: Optional[str] = None,
    pair: Optional[str] = None,
    scenario: Optional["ScenarioSpec"] = None,
    protocol_kwargs: Optional[dict] = None,
    injection_kwargs: Optional[dict] = None,
    pair_kwargs: Optional[dict] = None,
    load_per_frame: Optional[Callable[[float], float]] = None,
    load_from_injected: bool = False,
    requires: Tuple[str, ...] = (),
    backend: Optional[str] = None,
    metrics: Optional[str] = None,
) -> List[CellSpec]:
    """Flatten a (rate, seed) grid into rate-major :class:`CellSpec` units.

    The spec-generation stage of a sharded sweep; mirrors
    :func:`repro.sim.runner.build_factory_cells` cell for cell.
    ``rates``/``seeds`` are materialised once, so generators are safe.
    ``load_per_frame`` is an optional *callable* evaluated per rate at
    spec-generation time (the spec itself carries only the float).
    ``backend`` stamps a run-loop backend into every cell.
    ``scenario`` sweeps a declarative
    :class:`~repro.scenario.spec.ScenarioSpec` instead of named
    builders: every cell carries the whole network description and
    rebuilds it in its worker at the cell's (rate, seed).
    """
    rates = list(rates)
    seeds = list(seeds)
    specs: List[CellSpec] = []
    for index, rate in enumerate(rates):
        load = load_per_frame(rate) if load_per_frame is not None else None
        for seed in seeds:
            specs.append(
                CellSpec(
                    rate=rate,
                    seed=seed,
                    frames=frames,
                    rate_index=index,
                    protocol=protocol,
                    injection=injection,
                    pair=pair,
                    scenario=scenario,
                    protocol_kwargs=dict(protocol_kwargs or {}),
                    injection_kwargs=dict(injection_kwargs or {}),
                    pair_kwargs=dict(pair_kwargs or {}),
                    load_per_frame=load,
                    load_from_injected=load_from_injected,
                    requires=tuple(requires),
                    backend=backend,
                    metrics=metrics,
                )
            )
    return specs


# ----------------------------------------------------------------------
# Executors
# ----------------------------------------------------------------------


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
    # On Linux, fork inherits the builder registries (and test-local
    # builders) and skips re-importing numpy per worker. Elsewhere the
    # platform default stands — macOS offers fork but deliberately
    # defaults to spawn because forking a threaded/Objective-C parent
    # is unsafe; spawn workers recover registrations via each spec's
    # ``requires`` imports.
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
    and to the batched executor (``padding_ratio``, ``large_links``,
    ``strict``); the plain executors accept none.
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


def run_sharded_sweep(
    specs: Sequence[CellSpec],
    executor=None,
) -> List[RateSweepRecord]:
    """Execute sweep specs and aggregate — the sharded ``run_rate_sweep``.

    ``executor`` defaults to :class:`SerialExecutor`; pass a
    :class:`ProcessExecutor` to shard across worker processes. Both
    fold through :func:`~repro.sim.runner.aggregate_rate_sweep`, so the
    records are identical either way.
    """
    if executor is None:
        executor = SerialExecutor()
    return aggregate_rate_sweep(executor.map(list(specs)))


__all__ = [
    "CellSpec",
    "EXECUTORS",
    "ProcessExecutor",
    "SerialExecutor",
    "default_worker_count",
    "executor_names",
    "make_executor",
    "register_injection_builder",
    "register_pair_builder",
    "register_protocol_builder",
    "resolve_injection_builder",
    "resolve_pair_builder",
    "resolve_protocol_builder",
    "run_cell",
    "run_sharded_sweep",
    "sweep_specs",
]
