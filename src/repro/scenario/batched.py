"""The ``batched`` fleet executor: whole networks advanced in waves.

The retired P5 bench (PERFORMANCE.md) measured that
process-per-network cannot amortise small networks (each is too cheap
to ship to a worker, and its host had one CPU). This layer instead
routes a fleet through :mod:`repro.staticsched.batchloop`: every eligible
:class:`~repro.scenario.fleet.FleetUnit` becomes a *step generator*
(its whole simulation — engine frame loop, protocol frame, transform
rounds — expressed through the :mod:`repro.core.steps` seam), and one
in-process wave engine advances all of their static-algorithm sub-runs
together, each as its own :class:`~repro.staticsched.runloop.FusedTask`
(the engine of a serial run). Results are bit-identical to
``unit.run()`` by construction: the generators execute the same
bookkeeping code the serial entry points drive, and each task is the
serial engine itself, so the per-network RunResults and RNG end states
are those of serial runs.

Eligibility
-----------
A unit batches when its spec resolves to the ``numpy`` backend (the
scalar reference does not batch), its scheduler has a fused policy,
and it is not checkpointed (resume runs through its own serial
machinery). Ineligible units fall back *loudly* — one aggregated
:class:`BatchFallbackWarning` per run summarising every fallback
(reason → count), or an immediate error under ``strict`` — and run
serially. Every eligible unit, whatever its scheduler, model or size,
joins one :func:`run_batched_streams` call: each task scans its own
coin buffer against its own thresholds, so tasks share no state and
need no grouping.

Mixed ``frames`` counts batch fine (a retired network simply stops
contributing tasks; its RNG streams are private so survivors are
unperturbed), as do batches of one and zero-link networks (their tasks
finish as soon as they run).
"""

from __future__ import annotations

import warnings
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.transform import TransformedAlgorithm
from repro.errors import ConfigurationError
from repro.scenario.fleet import FleetUnit
from repro.sim.engine import FrameSimulation
from repro.sim.runner import summarize_cell
from repro.staticsched.batchloop import run_batched_streams
from repro.staticsched.runloop import resolve_backend

#: Schedulers with a ``fused_policy`` factory (kept in sync with the
#: registry; unknown schedulers simply fall back to serial).
BATCHABLE_SCHEDULERS = frozenset(
    {"kv", "decay", "fkv", "hm", "single-hop"}
)


class BatchFallbackWarning(UserWarning):
    """A fleet unit left the batched path for per-unit execution."""


def _ineligible_reason(unit: Any) -> Optional[str]:
    """Why ``unit`` cannot batch, or None when it can."""
    if not isinstance(unit, FleetUnit):
        return (
            f"work unit {type(unit).__name__} is not a FleetUnit "
            "(only scenario fleets batch)"
        )
    if unit.checkpoint_path is not None:
        return "checkpointed units resume through their serial path"
    if resolve_backend(unit.spec.backend) == "scalar":
        return "the scalar reference does not batch"
    if unit.spec.scheduler not in BATCHABLE_SCHEDULERS:
        return f"scheduler {unit.spec.scheduler!r} has no fused policy"
    return None


def _relay(call):
    """Yield the batchable form of one AlgorithmCall (sub-generator).

    Transformed algorithms are unrolled through their own step
    generator so each base sub-run batches individually; plain fused
    schedulers are yielded directly; anything else (no fused policy)
    executes synchronously in place.
    """
    algorithm = call.algorithm
    if isinstance(algorithm, TransformedAlgorithm):
        if getattr(algorithm.base, "fused_policy", None) is None:
            return call.execute()
        return (
            yield from algorithm.run_steps(
                call.model,
                call.requests,
                call.budget,
                call.rng,
                call.record_history,
            )
        )
    if getattr(algorithm, "fused_policy", None) is None:
        return call.execute()
    return (yield call)


def _unit_stream(unit: FleetUnit, built):
    """One fleet unit as a step generator returning its CellResult.

    Mirrors ``ScenarioSpec.run`` exactly — same construction, same
    measurement reduction — with the frame loop driven through the
    generator seam. No backend context is entered: the wave engine is
    bit-identical to the numpy backend, and a context manager held
    across yields would corrupt the backend override stack for the
    other interleaved networks.
    """
    spec = unit.spec
    simulation = FrameSimulation(
        built.protocol, built.injection, metrics=spec.metrics
    )
    steps = simulation.run_steps(spec.frames)
    try:
        call = next(steps)
        while True:
            result = yield from _relay(call)
            call = steps.send(result)
    except StopIteration:
        pass
    return summarize_cell(
        built.protocol,
        simulation.metrics,
        spec.frames,
        rate=built.rate,
        seed=spec.seed,
        rate_index=unit.index,
        load_from_injected=spec.load_from_injected,
    )


def run_fleet_batched(units: Sequence[Any], strict: bool = False) -> List:
    """Run fleet units through the wave engine; results in input order.

    Every result is bit-identical to ``unit.run()``. Ineligible units
    warn (:class:`BatchFallbackWarning`) and run serially; under
    ``strict`` they raise instead.
    """
    units = list(units)
    results: List = [None] * len(units)
    serial_positions: List[int] = []
    batch: List[Tuple[int, Any]] = []
    # reason -> positions, in first-seen order; emitted as ONE summary
    # warning after the loop so a large fleet with many fallbacks does
    # not flood the warning stream (strict still raises immediately,
    # per unit, with the precise position).
    fallbacks: Dict[str, List[int]] = {}
    for position, unit in enumerate(units):
        reason = _ineligible_reason(unit)
        if reason is not None:
            if strict:
                raise ConfigurationError(
                    f"fleet unit {position} cannot batch ({reason}); "
                    "running it serially"
                )
            fallbacks.setdefault(reason, []).append(position)
            serial_positions.append(position)
            continue
        batch.append((position, _unit_stream(unit, unit.spec.build())))

    if fallbacks:
        total = sum(len(positions) for positions in fallbacks.values())
        details = "; ".join(
            f"{reason} [x{len(positions)}]"
            for reason, positions in fallbacks.items()
        )
        warnings.warn(
            f"{total} of {len(units)} fleet unit(s) cannot batch; "
            f"running them serially ({details})",
            BatchFallbackWarning,
            stacklevel=2,
        )

    if batch:
        outputs = run_batched_streams([stream for _, stream in batch])
        for (position, _), output in zip(batch, outputs):
            results[position] = output

    for position in serial_positions:
        results[position] = units[position].run()
    return results


class BatchedExecutor:
    """Executor running fleets through the in-process wave engine.

    Drop-in for the serial/process executors anywhere a fleet or
    campaign takes one (``map(units) -> results``, order preserved,
    records bit-identical). ``workers`` is accepted for interface
    parity and ignored — batching is the single-CPU answer to fleet
    throughput.
    """

    name = "batched"

    def __init__(self, workers: Optional[int] = None, strict: bool = False):
        del workers  # interface parity with the other executors
        self.strict = bool(strict)

    def map(self, cells: Sequence[Any]) -> List:
        return run_fleet_batched(cells, strict=self.strict)


__all__ = [
    "BATCHABLE_SCHEDULERS",
    "BatchFallbackWarning",
    "BatchedExecutor",
    "run_fleet_batched",
]
