"""The process executor: one pool, with retry, timeout, quarantine, resume.

:class:`FaultTolerantExecutor` runs a list of work units in one process
pool, at most ``workers`` cells in flight, and returns the results in
input order. Long campaigns need more than a healthy pool: one dead
worker or one wedged cell must not take the campaign down, and an
interrupted fleet must not restart from zero. So the executor adds:

* **Retry with backoff** — transient failures (worker crashes, cell
  timeouts, raised exceptions) are retried up to ``max_retries`` times
  with exponential backoff and deterministic jitter. A retried cell
  rejoins the same queue.
* **Crash classification and quarantine** — a cell that fails twice
  with the *same* exception signature is deterministic, not transient:
  it is quarantined instead of burning its remaining retries (and,
  under ``strict``, named in the final error).
* **Per-cell timeouts** — a wedged cell is blamed and retried; cells
  that were healthy when the pool was torn down are re-queued without
  charging them an attempt. Only a timeout or a dead worker rebuilds
  the pool.
* **Graceful degradation** — two pool crashes with no cell completed
  between them drop the executor to in-process serial execution rather
  than looping on a broken pool.
* **A durable manifest** — every completed cell is journalled (with a
  per-record checksum, so torn writes are detected and skipped) the
  moment it finishes. A re-run with ``resume=True`` skips completed
  cells and hands unfinished cells their checkpoint file, so they
  restart from the last snapshot instead of frame 0.

With ``max_retries=0`` and no manifest it is the plain process
executor (``make_executor("process")``): a failed cell or a dead
worker raises, naming the cell.

Determinism is preserved through all of it: cells are pure functions
of their spec, checkpoints restore bit-identically, and results are
folded in spec order — a fleet that crashed five times and resumed
twice produces records byte-identical to one clean run.
"""

from __future__ import annotations

import collections
import concurrent.futures
import dataclasses
import hashlib
import json
import multiprocessing
import os
import random
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.sim.faults import active_injector, corrupt_file
from repro.sim.runner import CellResult
from repro.sim.sharding import default_worker_count
from repro.sim.stability import StabilityVerdict

# ----------------------------------------------------------------------
# Cell identity and result serialisation
# ----------------------------------------------------------------------


def _unit_index(unit) -> int:
    """The unit's position axis (a fleet unit's ``index``)."""
    return int(getattr(unit, "index", 0))


def unit_key(unit) -> str:
    """Stable identity of a work unit: position + full spec content.

    Keyed on the *spec content*, so a resumed fleet only reuses a
    manifest entry when the cell at that position is configured
    identically — editing one spec invalidates exactly that cell.
    Fleet units serialise their scenario spec; any other duck-typed
    unit falls back to its ``repr``.
    """
    spec = getattr(unit, "spec", None)
    if spec is not None and hasattr(spec, "to_json"):
        payload = f"{_unit_index(unit)}:{spec.to_json(sort_keys=True)}"
    else:
        payload = f"{_unit_index(unit)}:{unit!r}"
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def cell_result_to_dict(result: CellResult) -> Dict[str, Any]:
    """Flatten a :class:`CellResult` to JSON-safe plain data.

    Floats round-trip bit-exactly through ``repr``-based JSON
    serialisation (including NaN, via the ``NaN`` literal both the
    encoder and decoder speak), so a manifest-recovered record equals
    the original dataclass.
    """
    verdict = result.verdict
    return {
        "rate_index": result.rate_index,
        "rate": result.rate,
        "seed": result.seed,
        "verdict": {
            "stable": verdict.stable,
            "slope_per_frame": verdict.slope_per_frame,
            "normalised_slope": verdict.normalised_slope,
            "blowup_ratio": verdict.blowup_ratio,
            "tail_mean": verdict.tail_mean,
        },
        "tail_queue": result.tail_queue,
        "throughput": result.throughput,
        "latency": result.latency,
        "frame_length": result.frame_length,
        "injected": result.injected,
        "delivered": result.delivered,
        "failures": result.failures,
    }


def cell_result_from_dict(data: Dict[str, Any]) -> CellResult:
    """Inverse of :func:`cell_result_to_dict` (ConfigurationError on junk)."""
    try:
        verdict = data["verdict"]
        return CellResult(
            rate_index=int(data["rate_index"]),
            rate=float(data["rate"]),
            seed=int(data["seed"]),
            verdict=StabilityVerdict(
                stable=bool(verdict["stable"]),
                slope_per_frame=float(verdict["slope_per_frame"]),
                normalised_slope=float(verdict["normalised_slope"]),
                blowup_ratio=float(verdict["blowup_ratio"]),
                tail_mean=float(verdict["tail_mean"]),
            ),
            tail_queue=float(data["tail_queue"]),
            throughput=float(data["throughput"]),
            latency=float(data["latency"]),
            frame_length=int(data["frame_length"]),
            injected=int(data["injected"]),
            delivered=int(data["delivered"]),
            failures=int(data["failures"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(
            f"manifest holds a malformed cell result: {exc}"
        ) from exc


# ----------------------------------------------------------------------
# Retry policy
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with deterministic jitter.

    ``delay(attempt, key)`` is ``backoff_base * 2**attempt`` capped at
    ``backoff_max``, times a jitter factor in ``[1 - jitter, 1 +
    jitter]`` drawn from a PRNG seeded by ``(key, attempt)`` — so
    retries of different cells desynchronise (no thundering herd when a
    wave dies together) while any given retry's delay is reproducible.
    """

    max_retries: int = 2
    backoff_base: float = 0.1
    backoff_max: float = 2.0
    jitter: float = 0.25

    def __post_init__(self):
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.backoff_base < 0 or self.backoff_max < 0:
            raise ConfigurationError("backoff times must be >= 0")
        if not 0.0 <= self.jitter < 1.0:
            raise ConfigurationError(
                f"jitter must be in [0, 1), got {self.jitter}"
            )

    def delay(self, attempt: int, key: str) -> float:
        base = min(self.backoff_base * (2.0**attempt), self.backoff_max)
        if self.jitter == 0.0 or base == 0.0:
            return base
        rng = random.Random(f"{key}:{attempt}")
        return base * (1.0 + self.jitter * (2.0 * rng.random() - 1.0))


# ----------------------------------------------------------------------
# Fleet manifest: a checksummed append-only journal
# ----------------------------------------------------------------------


def _entry_digest(entry: Dict[str, Any]) -> str:
    canonical = json.dumps(entry, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


_FLEET_KEY = "__fleet__"


class FleetManifest:
    """Append-only journal of fleet progress under one directory.

    Layout::

        <directory>/manifest.jsonl    one JSON record per line
        <directory>/checkpoints/      per-cell simulation checkpoints

    Every line is ``{"sha256": <digest of entry>, "entry": {...}}``,
    appended, flushed and fsynced the moment the event happens — a
    crash mid-append leaves at most one torn final line, which the
    loader detects (bad JSON or digest mismatch) and skips. Later
    entries for the same key supersede earlier ones, so the journal
    never needs rewriting in place.
    """

    def __init__(self, directory: str):
        self.directory = str(directory)
        os.makedirs(self.directory, exist_ok=True)
        os.makedirs(
            os.path.join(self.directory, "checkpoints"), exist_ok=True
        )
        self.path = os.path.join(self.directory, "manifest.jsonl")
        self.invalid_lines = 0
        self._completed: Dict[str, Dict[str, Any]] = {}
        self._fleet: Optional[Dict[str, Any]] = None
        self._load()

    # -- reading -------------------------------------------------------

    def _load(self) -> None:
        if not os.path.exists(self.path):
            return
        with open(self.path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                    entry = record["entry"]
                    if record["sha256"] != _entry_digest(entry):
                        raise ValueError("digest mismatch")
                except (
                    json.JSONDecodeError,
                    KeyError,
                    TypeError,
                    ValueError,
                ):
                    self.invalid_lines += 1
                    continue
                kind = entry.get("kind")
                if kind == "fleet":
                    self._fleet = entry
                elif kind == "completed":
                    self._completed[entry["key"]] = entry

    @property
    def fleet_entry(self) -> Optional[Dict[str, Any]]:
        return self._fleet

    def completed_result(self, key: str) -> Optional[CellResult]:
        entry = self._completed.get(key)
        if entry is None:
            return None
        return cell_result_from_dict(entry["result"])

    def completed_keys(self) -> List[str]:
        return list(self._completed)

    def checkpoint_path(self, key: str) -> str:
        return os.path.join(self.directory, "checkpoints", f"{key}.ckpt")

    # -- writing -------------------------------------------------------

    def _append(self, entry: Dict[str, Any]) -> None:
        line = json.dumps(
            {"sha256": _entry_digest(entry), "entry": entry},
            sort_keys=True,
        )
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    def record_fleet(self, fingerprint: str, cells: int) -> None:
        """Stamp (or verify) the fleet identity this manifest tracks."""
        if self._fleet is not None:
            if self._fleet.get("fingerprint") != fingerprint:
                raise ConfigurationError(
                    f"manifest {self.path} belongs to a different fleet "
                    "(spec list changed); use a fresh --checkpoint-dir or "
                    "delete the old one"
                )
            return
        entry = {
            "kind": "fleet",
            "key": _FLEET_KEY,
            "fingerprint": fingerprint,
            "cells": int(cells),
        }
        self._append(entry)
        self._fleet = entry

    def record_completed(
        self, key: str, index: int, result: CellResult
    ) -> None:
        entry = {
            "kind": "completed",
            "key": key,
            "index": int(index),
            "result": cell_result_to_dict(result),
        }
        self._append(entry)
        self._completed[key] = entry

    def record_failure(
        self, key: str, index: int, attempt: int, failure: str, detail: str
    ) -> None:
        """Journal a failure for observability (never read on resume)."""
        self._append(
            {
                "kind": "failure",
                "key": key,
                "index": int(index),
                "attempt": int(attempt),
                "failure": failure,
                "detail": detail[:500],
            }
        )


def fleet_fingerprint(units: Sequence) -> str:
    """Identity of a whole fleet: the ordered list of unit keys."""
    payload = json.dumps([unit_key(unit) for unit in units])
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# The fault-tolerant executor
# ----------------------------------------------------------------------


def _run_unit_attempt(task: Tuple[Any, int]) -> CellResult:
    """Module-level trampoline: fire matching faults, then run the unit."""
    unit, attempt = task
    injector = active_injector()
    if injector is not None:
        index = _unit_index(unit)
        path = getattr(unit, "checkpoint_path", None)
        if path and injector.should_corrupt(index, attempt):
            corrupt_file(path)
        injector.on_cell(index, attempt)
    return unit.run()


def _pool_context():
    """The multiprocessing context the pool's workers start in.

    On Linux, fork inherits the component registry (test-local
    components included) and skips re-importing numpy per worker.
    Elsewhere the platform default stands — macOS offers fork but
    deliberately defaults to spawn because forking a
    threaded/Objective-C parent is unsafe; spawn workers recover
    registrations via each spec's ``requires`` imports.
    """
    if (
        sys.platform.startswith("linux")
        and "fork" in multiprocessing.get_all_start_methods()
    ):
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def _died(future) -> bool:
    """True when a finished future failed because its pool broke."""
    return isinstance(
        future.exception(), concurrent.futures.process.BrokenProcessPool
    )


@dataclass
class CellStatus:
    """Everything the executor knows about one cell's journey."""

    index: int
    state: str = "pending"  # completed | failed | quarantined | pending
    attempts: int = 0
    source: str = "run"  # run | manifest
    failures: List[str] = field(default_factory=list)


class FaultTolerantExecutor:
    """An order-preserving ``map`` over one process pool.

    ``map(units) -> results`` in input order, with the recovery
    behaviour described in the module docstring; ``use_processes=False``
    runs the same retry and quarantine logic in this process. After
    ``map`` returns, ``statuses`` holds one :class:`CellStatus` per
    unit (input order).

    ``max_retries`` (default: the retry policy's, 2 unless
    ``retry_policy`` says otherwise) may be given with ``retry_policy``
    only when the two agree. With ``strict=True`` (the default) any
    cell that still has no result after retries raises a
    :class:`ConfigurationError` naming the failed and quarantined cells
    and their last error — safe for callers that assume a complete
    result list. ``strict=False`` returns ``None`` at failed positions
    instead (what :func:`run_resilient_fleet` uses).
    """

    name = "resilient"

    def __init__(
        self,
        workers: Optional[int] = None,
        max_retries: Optional[int] = None,
        cell_timeout: Optional[float] = None,
        retry_policy: Optional[RetryPolicy] = None,
        manifest: Optional[FleetManifest] = None,
        resume: bool = False,
        snapshot_interval: Optional[int] = None,
        use_processes: bool = True,
        strict: bool = True,
    ):
        if workers is not None and workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        if cell_timeout is not None and cell_timeout <= 0:
            raise ConfigurationError(
                f"cell_timeout must be > 0, got {cell_timeout}"
            )
        policy = retry_policy or RetryPolicy()
        if max_retries is not None:
            if retry_policy is not None and (
                max_retries != retry_policy.max_retries
            ):
                raise ConfigurationError(
                    f"max_retries={max_retries} disagrees with the retry "
                    f"policy's max_retries={retry_policy.max_retries}"
                )
            policy = dataclasses.replace(policy, max_retries=max_retries)
        self.workers = workers or default_worker_count()
        self.retry_policy = policy
        self.cell_timeout = cell_timeout
        self.manifest = manifest
        self.resume = resume
        self.snapshot_interval = snapshot_interval
        self.use_processes = use_processes
        self.strict = strict
        self.statuses: List[CellStatus] = []
        self._pool_crashes = 0

    # -- bookkeeping ---------------------------------------------------

    def _prepare(self, units: Sequence) -> List[Any]:
        """Attach manifest checkpoints; stamp the fleet identity."""
        prepared = list(units)
        if self.manifest is not None:
            keys = [unit_key(unit) for unit in prepared]
            self.manifest.record_fleet(
                fleet_fingerprint(prepared), len(prepared)
            )
            prepared = [
                unit
                if getattr(unit, "checkpoint_path", None)
                or not hasattr(unit, "with_checkpoint")
                else unit.with_checkpoint(
                    self.manifest.checkpoint_path(key),
                    self.snapshot_interval,
                )
                for unit, key in zip(prepared, keys)
            ]
        return prepared

    def _note_failure(
        self, requeue, units, keys, position, attempt, kind, detail
    ) -> None:
        """Record one failed attempt; requeue the cell when it retries."""
        status = self.statuses[position]
        signature = f"{kind}:{detail}"
        status.failures.append(signature)
        status.attempts = attempt + 1
        if self.manifest is not None:
            self.manifest.record_failure(
                keys[position], _unit_index(units[position]), attempt,
                kind, detail,
            )
        if (
            kind == "error"
            and status.failures.count(signature) >= 2
        ):
            # Same exception twice: deterministic, retries are wasted.
            status.state = "quarantined"
        elif attempt >= self.retry_policy.max_retries:
            status.state = "failed"
        else:
            time.sleep(self.retry_policy.delay(attempt, keys[position]))
            requeue.append((position, attempt + 1))

    def _complete(self, position, attempt, units, keys, results, result):
        results[position] = result
        status = self.statuses[position]
        status.attempts = attempt + 1
        status.state = "completed"
        self._pool_crashes = 0
        if self.manifest is not None:
            self.manifest.record_completed(
                keys[position], _unit_index(units[position]), result
            )

    # -- execution -----------------------------------------------------

    def map(self, units: Sequence) -> List[Optional[CellResult]]:
        units = self._prepare(units)
        n = len(units)
        keys = [unit_key(unit) for unit in units]
        self.statuses = [CellStatus(index=i) for i in range(n)]
        results: List[Optional[CellResult]] = [None] * n
        pending: List[Tuple[int, int]] = []  # (position, attempt)

        for position in range(n):
            if self.resume and self.manifest is not None:
                try:
                    recovered = self.manifest.completed_result(
                        keys[position]
                    )
                except ConfigurationError:
                    recovered = None
                if recovered is not None:
                    results[position] = recovered
                    self.statuses[position].state = "completed"
                    self.statuses[position].source = "manifest"
                    continue
            pending.append((position, 0))

        while pending:
            run = self._run_pool if self.use_processes else self._run_serial
            pending = run(units, keys, pending, results)

        if self.strict:
            bad = [
                status
                for status in self.statuses
                if status.state in ("failed", "quarantined")
            ]
            if bad:
                summary = "; ".join(
                    f"cell {s.index} {s.state} after {s.attempts} "
                    f"attempt(s) ({s.failures[-1] if s.failures else '?'})"
                    for s in bad
                )
                raise ConfigurationError(
                    f"{len(bad)} of {n} fleet cells did not complete: "
                    f"{summary}"
                )
        return results

    def _run_serial(self, units, keys, pending, results):
        """In-process fallback: same retry/quarantine logic, no pool."""
        requeue: List[Tuple[int, int]] = []
        for position, attempt in pending:
            try:
                result = _run_unit_attempt((units[position], attempt))
            except Exception as exc:
                self._note_failure(
                    requeue, units, keys, position, attempt,
                    "error", f"{type(exc).__name__}: {exc}",
                )
            else:
                self._complete(
                    position, attempt, units, keys, results, result
                )
        return requeue

    def _settle(self, future, position, attempt, units, keys, results, queue):
        """Fold one finished (not pool-broken) future into the results."""
        error = future.exception()
        if error is None:
            self._complete(
                position, attempt, units, keys, results, future.result()
            )
        elif not isinstance(error, Exception):
            raise error  # KeyboardInterrupt from a worker stops the map
        else:
            self._note_failure(
                queue, units, keys, position, attempt,
                "error", f"{type(error).__name__}: {error}",
            )

    def _run_pool(self, units, keys, pending, results):
        """Run ``pending`` through one pool, ``workers`` cells in flight.

        Each finished cell frees its slot for the next queued one, and a
        retried cell rejoins the back of the queue; the wait wakes at
        the nearest cell deadline. Returns ``[]`` once every cell has
        settled. A dead worker or an overdue cell forces the pool down:
        the cells it was running are charged (or requeued uncharged
        when healthy) and the work left is returned, for ``map`` to run
        in a new pool — or in-process after two pool crashes with no
        cell completed between them.
        """
        queue = collections.deque(pending)
        pool = concurrent.futures.ProcessPoolExecutor(
            max_workers=min(self.workers, len(queue)),
            mp_context=_pool_context(),
        )
        running: Dict[Any, Tuple[int, int, float]] = {}
        broken = overdue = False
        try:
            while (queue or running) and not (broken or overdue):
                try:
                    while queue and len(running) < self.workers:
                        position, attempt = queue[0]
                        future = pool.submit(
                            _run_unit_attempt, (units[position], attempt)
                        )
                        queue.popleft()
                        running[future] = (position, attempt, time.monotonic())
                except concurrent.futures.process.BrokenProcessPool:
                    broken = True
                    break
                budget = None
                if self.cell_timeout is not None:
                    oldest = min(started for _, _, started in running.values())
                    budget = max(
                        0.0, oldest + self.cell_timeout - time.monotonic()
                    )
                done, _ = concurrent.futures.wait(
                    running,
                    timeout=budget,
                    return_when=concurrent.futures.FIRST_COMPLETED,
                )
                for future in [f for f in running if f in done]:
                    if _died(future):
                        broken = True
                    else:
                        position, attempt, _ = running.pop(future)
                        self._settle(
                            future, position, attempt, units, keys,
                            results, queue,
                        )
                now = time.monotonic()
                overdue = self.cell_timeout is not None and any(
                    not future.done() and now - started >= self.cell_timeout
                    for future, (_, _, started) in running.items()
                )
            if not (broken or overdue):
                return []
            now = time.monotonic()
            self._teardown(pool)  # before any backoff sleep below
            for future, (position, attempt, started) in running.items():
                if future.done() and not _died(future):
                    self._settle(
                        future, position, attempt, units, keys, results,
                        queue,
                    )
                elif broken:
                    # A dead worker breaks every in-flight future, and
                    # the pool cannot say which cell it was running —
                    # charge the whole blast radius one (transient,
                    # never quarantining) crash so the guilty cell's
                    # attempt counter advances.
                    self._note_failure(
                        queue, units, keys, position, attempt,
                        "crash", "worker process died",
                    )
                elif now - started >= self.cell_timeout:
                    self._note_failure(
                        queue, units, keys, position, attempt,
                        "timeout", f"exceeded {self.cell_timeout:.3g}s",
                    )
                else:
                    # Healthy when the pool had to go: requeue uncharged.
                    queue.append((position, attempt))
        finally:
            self._teardown(pool)
        self._pool_crashes += 1
        if self._pool_crashes >= 2:
            # The pool itself is unhealthy (not one bad cell): degrade
            # to serial rather than loop.
            self.use_processes = False
        return list(queue)

    @staticmethod
    def _teardown(pool) -> None:
        """Kill a pool hard: wedged or dead workers must not block exit."""
        processes = list((getattr(pool, "_processes", None) or {}).values())
        for process in processes:
            if process.is_alive():
                process.terminate()
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass
        for process in processes:
            process.join(timeout=5.0)


# ----------------------------------------------------------------------
# The resilient fleet front door
# ----------------------------------------------------------------------


@dataclass
class ResilientFleetResult:
    """A fleet outcome that tolerates holes.

    ``records`` is in spec order with ``None`` at failed positions;
    ``summary`` aggregates the completed records (``None`` when none
    completed). ``complete`` is True when every cell produced a
    record.
    """

    records: List[Optional[CellResult]]
    summary: Optional[Any]
    statuses: List[CellStatus]
    failed_indices: List[int]
    quarantined_indices: List[int]

    @property
    def complete(self) -> bool:
        return not self.failed_indices and not self.quarantined_indices


def run_resilient_fleet(
    specs: Sequence,
    *,
    workers: Optional[int] = None,
    max_retries: Optional[int] = None,
    cell_timeout: Optional[float] = None,
    manifest_dir: Optional[str] = None,
    resume: bool = False,
    snapshot_interval: Optional[int] = None,
    retry_policy: Optional[RetryPolicy] = None,
    use_processes: bool = True,
) -> ResilientFleetResult:
    """Run a fleet of scenario specs with the full recovery stack.

    The fault-tolerant sibling of
    :func:`~repro.scenario.fleet.run_scenario_fleet`: same specs, same
    per-cell records, but crashes/timeouts retry, deterministic
    failures quarantine, and with ``manifest_dir`` the campaign is
    durable — an interrupted run re-invoked with ``resume=True`` skips
    completed cells and resumes unfinished ones from their last
    checkpoint. Always returns (partial results included); inspect
    ``result.complete`` / ``failed_indices``.
    """
    from repro.scenario.fleet import FleetUnit, aggregate_fleet

    units = [
        FleetUnit(spec=spec, index=index) for index, spec in enumerate(specs)
    ]
    if not units:
        raise ConfigurationError("a fleet needs at least one scenario spec")
    if resume and manifest_dir is None:
        raise ConfigurationError(
            "resume=True needs a manifest_dir to resume from"
        )
    manifest = FleetManifest(manifest_dir) if manifest_dir else None
    executor = FaultTolerantExecutor(
        workers=workers,
        max_retries=max_retries,
        cell_timeout=cell_timeout,
        retry_policy=retry_policy,
        manifest=manifest,
        resume=resume,
        snapshot_interval=snapshot_interval,
        use_processes=use_processes,
        strict=False,
    )
    records = executor.map(units)
    completed = [record for record in records if record is not None]
    summary = aggregate_fleet(completed).summary if completed else None
    return ResilientFleetResult(
        records=records,
        summary=summary,
        statuses=executor.statuses,
        failed_indices=[
            s.index for s in executor.statuses if s.state == "failed"
        ],
        quarantined_indices=[
            s.index for s in executor.statuses if s.state == "quarantined"
        ],
    )


__all__ = [
    "CellStatus",
    "FaultTolerantExecutor",
    "FleetManifest",
    "ResilientFleetResult",
    "RetryPolicy",
    "cell_result_from_dict",
    "cell_result_to_dict",
    "fleet_fingerprint",
    "run_resilient_fleet",
    "unit_key",
]
