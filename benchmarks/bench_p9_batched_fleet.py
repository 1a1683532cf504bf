"""P9 — the batched fleet executor vs serial and process execution.

The retired P5 bench measured the honest ceiling of
process-per-network fleets: on a 1-CPU host a worker pool adds IPC and
import cost on top of a serial loop, and even with real cores each
*small* network is too cheap to ship out. The batched executor runs every network in a
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

from contextlib import contextmanager

from _harness import (
    check_gates,
    gate,
    measure,
    once,
    print_experiment,
    timings,
    write_payload,
)

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


def _fleet(specs, executor):
    def run(watch):
        result = run_scenario_fleet(specs, executor)
        # repr is NaN-aware: an unstable network's NaN latency reprs
        # equal, where NaN == NaN would not.
        return {
            "records": repr(result.records),
            "summary": repr(result.summary),
            "stable_fraction": result.summary.stable_fraction,
        }
    return run


def run_experiment(
    frames: int = FRAMES,
    networks: int = NETWORKS,
    repeats: int = TIMING_REPEATS,
    out_path=None,
    tags=None,
):
    specs = build_specs(frames, networks)
    runs = measure({
        "serial": _fleet(specs, SerialExecutor()),
        f"process-{PROCESS_WORKERS}": _fleet(
            specs, ProcessExecutor(workers=PROCESS_WORKERS)
        ),
        "batched": _fleet(specs, BatchedExecutor(strict=True)),
    }, repeats)
    # Parity is asserted inside the benchmark, not delegated to the
    # test suite: every executor reproduces the serial fleet records.
    baseline = runs["serial"].outcome
    for name, run in runs.items():
        assert run.outcome == baseline, (
            f"fleet '{name}' is not record-identical to serial"
        )

    stepped = {
        "serial": stepped_fraction(specs, SerialExecutor()),
        "batched": stepped_fraction(specs, BatchedExecutor(strict=True)),
    }
    fleet_frames = networks * frames
    serial_s = runs["serial"].min
    rows = {
        name: {
            "fleet_frames_per_sec": fleet_frames / run.min,
            "speedup": serial_s / run.min,
        }
        for name, run in runs.items()
    }
    payload = write_payload(out_path, {
        "benchmark": "p9_batched_fleet",
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
        "executors": rows,
        "stepped_fraction": stepped,
        "stable_fraction": baseline["stable_fraction"],
        "timings": timings(runs),
        # Slot counts are deterministic, so the ceiling holds on any
        # runner.
        "gates": [
            gate(f"{name} stepped slots", "stepped / simulated slots",
                 fraction, STEPPED_FRACTION_CEILING, ceiling=True)
            for name, fraction in stepped.items()
        ],
    }, tags)

    print_experiment(
        "P9",
        f"Batched fleet: {networks} small networks interleaved in one "
        f"wave loop on {default_worker_count()} CPU(s), bit-identical "
        "to serial; stepped slots "
        f"{stepped['serial']:.2%} serial, {stepped['batched']:.2%} batched",
        ["executor", "seconds (min)", "fleet frames/sec", "speedup"],
        [
            [name, f"{runs[name].min:.2f}",
             f"{row['fleet_frames_per_sec']:.1f}", f"{row['speedup']:.2f}x"]
            for name, row in rows.items()
        ],
    )
    return payload


def test_p9_batched_fleet(benchmark, tmp_path):
    check_gates(once(
        benchmark,
        lambda: run_experiment(out_path=tmp_path / "BENCH_p9.json"),
    ))
