"""P9 — the batched fleet executor vs serial and process execution.

P5 measured the honest ceiling of process-per-network fleets: on the
1-CPU bench container a worker pool adds IPC and import cost on top of
a serial loop, and even with real cores each *small* network is too
cheap to ship out. The batched executor runs every network in a
compatible group as a step-generator and one in-process wave loop
interleaves their static-algorithm sub-runs.

Both the serial and the batched path run each sub-run as the same
``FusedTask``, which window-scans event-sparse stretches: it compares
a window of coins against the frozen thresholds in one vectorised
``<``, retires the event-free slots in closed form and steps only the
event slots. So batching no longer buys a speedup over serial; what
both share is the scan.

Workload: 8 small ``sinr-linear`` networks (10–12 nodes, distinct
seeds) under the HM scheduler at ``chi = 0.002`` with an absolute
injection rate — the sparse-transmission regime: long runs (~1.5k
slots per frame run) whose slots are almost all event-free.

The benchmark runs the same fleet serially, through a 2-process pool,
and batched; asserts all three produce identical per-network records;
and reports fleet frames/sec and the wall-clock speedups over serial.
Its floor is deterministic, so it holds on any runner: in one counted
serial pass and one counted batched pass, the engine steps at most
``STEPPED_FRACTION_CEILING`` of the slots it simulates one by one; the
rest are cleared by scans. The counts come from wrapping
``FusedTask._skip`` (slots cleared by scans) and ``FusedTask.finish``
(slots per run) for the length of the counted pass.

Results go to ``BENCH_p9.json`` (see ``benchmarks/run_perf.py``).
"""

from __future__ import annotations

import json
import math
import resource
import time
from contextlib import contextmanager
from pathlib import Path

from _harness import once, print_experiment

from repro.scenario import ScenarioSpec, preset_spec, run_scenario_fleet
from repro.scenario.batched import BatchedExecutor
from repro.sim.sharding import (
    ProcessExecutor,
    SerialExecutor,
    default_worker_count,
)
from repro.staticsched.runloop import FusedTask

PRESET = "sinr-linear"
NODES = (10, 11, 12)
FRAMES = 40
NETWORKS = 8
SCHEDULER = "hm"
CHI = 0.002
RATE = 0.2
PROCESS_WORKERS = 2
TIMING_REPEATS = 2
STEPPED_FRACTION_CEILING = 0.05


def build_specs(
    frames: int = FRAMES, networks: int = NETWORKS, nodes=NODES
):
    specs = [
        preset_spec(
            PRESET,
            nodes=nodes[seed % len(nodes)],
            seed=seed,
            frames=frames,
            scheduler=SCHEDULER,
            scheduler_kwargs={"chi": CHI},
            transform=False,
            rate_mode="absolute",
            rate=RATE,
        )
        for seed in range(networks)
    ]
    # Round-trip through JSON: batching must group and replay exactly
    # the serialized form a spec file would carry.
    return [ScenarioSpec.from_json(spec.to_json()) for spec in specs]


def records_identical(left, right) -> bool:
    """Per-network CellResult equality, NaN-aware on latency."""
    if len(left) != len(right):
        return False
    for a, b in zip(left, right):
        if (a.rate_index, a.rate, a.seed, a.verdict, a.tail_queue,
                a.throughput, a.frame_length, a.injected, a.delivered,
                a.failures) != (b.rate_index, b.rate, b.seed, b.verdict,
                                b.tail_queue, b.throughput, b.frame_length,
                                b.injected, b.delivered, b.failures):
            return False
        if not (
            a.latency == b.latency
            or (math.isnan(a.latency) and math.isnan(b.latency))
        ):
            return False
    return True


@contextmanager
def counted_slots():
    """Count the slots every ``FusedTask`` simulates and the slots its
    scans clear, for the length of the block."""
    counts = {"slots": 0, "skipped": 0}
    skip, finish = FusedTask._skip, FusedTask.finish

    def counted_skip(task, s):
        counts["skipped"] += s
        return skip(task, s)

    def counted_finish(task):
        counts["slots"] += task.slots
        return finish(task)

    FusedTask._skip, FusedTask.finish = counted_skip, counted_finish
    try:
        yield counts
    finally:
        FusedTask._skip, FusedTask.finish = skip, finish


def stepped_fraction(specs, executor) -> float:
    """The share of simulated slots the engine stepped one by one."""
    with counted_slots() as counts:
        run_scenario_fleet(specs, executor)
    return (counts["slots"] - counts["skipped"]) / counts["slots"]


def run_experiment(
    frames: int = FRAMES,
    networks: int = NETWORKS,
    repeats: int = TIMING_REPEATS,
    out_path=None,
    tags=None,
):
    specs = build_specs(frames, networks)
    executors = [
        ("serial", SerialExecutor()),
        (f"process-{PROCESS_WORKERS}",
         ProcessExecutor(workers=PROCESS_WORKERS)),
        ("batched", BatchedExecutor(strict=True)),
    ]
    seconds = {name: float("inf") for name, _ in executors}
    records = {}
    # Interleaved min-of-N (the P1..P8 noise-robust estimator); every
    # executor must reproduce the identical fleet records — parity is
    # asserted inside the benchmark, not delegated to the test suite.
    for _ in range(repeats):
        for name, executor in executors:
            start = time.perf_counter()
            result = run_scenario_fleet(specs, executor)
            seconds[name] = min(seconds[name], time.perf_counter() - start)
            assert name not in records or records_identical(
                records[name].records, result.records
            ), f"{name} records diverged between repeats"
            records[name] = result
    baseline = records["serial"]
    for name, _ in executors:
        assert records_identical(
            baseline.records, records[name].records
        ), f"fleet '{name}' is not record-identical to serial"
        assert records[name].summary == baseline.summary

    stepped = {
        "serial": stepped_fraction(specs, SerialExecutor()),
        "batched": stepped_fraction(specs, BatchedExecutor(strict=True)),
    }

    fleet_frames = networks * frames
    rows = {
        name: {
            "seconds": seconds[name],
            "fleet_frames_per_sec": fleet_frames / seconds[name],
            "speedup": seconds["serial"] / seconds[name],
        }
        for name, _ in executors
    }
    headline = rows["batched"]["speedup"]
    payload = {
        "benchmark": "p9_batched_fleet",
        "created_unix": time.time(),
        "cpu_count": default_worker_count(),
        "workload": {
            "name": f"batched-fleet-{PRESET}-{SCHEDULER}",
            "preset": PRESET,
            "scheduler": SCHEDULER,
            "chi": CHI,
            "rate": RATE,
            "rate_mode": "absolute",
            "nodes": list(NODES),
            "frames": frames,
            "networks": networks,
            "distinct_topologies": True,
        },
        "parity": "identical",
        "seconds_serial": seconds["serial"],
        "executors": rows,
        "headline_executor": "batched",
        "headline_speedup": headline,
        "stepped_fraction": stepped,
        "stepped_fraction_ceiling": STEPPED_FRACTION_CEILING,
        "stable_fraction": baseline.summary.stable_fraction,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tags:
        payload.update(tags)
    if out_path is not None:
        Path(out_path).write_text(json.dumps(payload, indent=2) + "\n")

    table = []
    for name, _ in executors:
        row = rows[name]
        table.append(
            [
                name,
                f"{row['seconds']:.2f}",
                f"{row['fleet_frames_per_sec']:.1f}",
                f"{row['speedup']:.2f}x",
            ]
        )
    print_experiment(
        "P9",
        f"Batched fleet: {networks} small networks interleaved in one "
        f"wave loop on {default_worker_count()} CPU(s), bit-identical "
        "to serial; stepped slots "
        f"{stepped['serial']:.2%} serial, {stepped['batched']:.2%} batched",
        ["executor", "seconds", "fleet frames/sec", "speedup"],
        table,
    )
    return payload


def test_p9_batched_fleet(benchmark, tmp_path):
    payload = once(
        benchmark,
        lambda: run_experiment(out_path=tmp_path / "BENCH_p9.json"),
    )
    # Parity is unconditional: every executor reproduced the serial
    # records network for network (asserted inside run_experiment).
    assert payload["parity"] == "identical"
    # So is the scan floor: slot counts are deterministic, so it holds
    # on any runner.
    for name, fraction in payload["stepped_fraction"].items():
        assert fraction <= STEPPED_FRACTION_CEILING, (
            f"{name} run stepped {fraction:.2%} of its slots one by one, "
            f"above the {STEPPED_FRACTION_CEILING:.0%} ceiling"
        )
