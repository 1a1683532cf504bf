"""P3 — the sharded sweep executor vs the serial cell loop.

The scaling tentpole after P1/P2: a single (rate, seed) cell is now
fast, but every paper table is a *sweep* — dozens of cells — and the
serial path runs them one after another in one process. A sweep is a
list of picklable ``FleetUnit`` work units, one ``ScenarioSpec`` per
(rate, seed) cell (``repro.scenario.sweep_units``); the process
executor (``repro.sim.sharding``) maps them over a ``multiprocessing``
pool and the results fold through the identical aggregation code, so
the only thing that changes is wall-clock.

Workload: the CLI's packet-routing scenario (8x8 grid) swept across the
stability boundary — rate fractions from well below to well above the
certified rate, two seeds each. Cells above the boundary cost several
times more than cells below it (queues grow without bound), which is
exactly the imbalance the executor's dynamic ``chunksize=1`` scheduling
has to absorb.

The benchmark runs the same unit list serially and at 1, 2, and 4
process workers, asserts every configuration produces record-identical
sweeps, and reports cells/sec per configuration. The headline is the
4-worker speedup over serial; the acceptance floor is 2x, which needs
real CPUs — the pytest wrapper enforces it when >= 4 cores are
available and records ``cpu_count`` in the JSON either way, so a
1-core container documents overhead honestly instead of faking
scaling.

Results go to ``BENCH_p3.json`` (see ``benchmarks/run_perf.py``).
"""

from __future__ import annotations

import json
import math
import resource
import time
from pathlib import Path

import pytest

from _harness import once, print_experiment

from repro.scenario import preset_spec, sweep_units
from repro.sim.runner import aggregate_rate_sweep
from repro.sim.sharding import (
    ProcessExecutor,
    SerialExecutor,
    default_worker_count,
)

SCENARIO = "packet-routing"
NODES = 64
FRAMES = 160
RATE_FRACTIONS = (0.5, 0.8, 1.1, 1.4)
SEEDS = (0, 1)
WORKER_COUNTS = (1, 2, 4)
HEADLINE_WORKERS = 4
TIMING_REPEATS = 2


def build_units(frames: int, fractions=RATE_FRACTIONS, seeds=SEEDS):
    spec = preset_spec(
        SCENARIO,
        nodes=NODES,
        frames=frames,
        # Enough generators that the 1.4x-certified overload cell stays
        # injectable (per-generator probability must be <= 1).
        injection_kwargs={"num_generators": 16},
    )
    spec = spec.replace(topology_kwargs={**spec.topology_kwargs, "seed": 0})
    certified = spec.build(with_protocol=False).certified
    return sweep_units(
        spec, [fraction * certified for fraction in fractions], seeds
    )


def records_identical(left, right) -> bool:
    """Record-for-record equality, NaN-aware on the latency mean."""
    if len(left) != len(right):
        return False
    for a, b in zip(left, right):
        if (a.rate, a.seeds, a.stable_fraction, a.mean_tail_queue,
                a.mean_throughput) != (b.rate, b.seeds, b.stable_fraction,
                                       b.mean_tail_queue, b.mean_throughput):
            return False
        if not (
            a.mean_latency == b.mean_latency
            or (math.isnan(a.mean_latency) and math.isnan(b.mean_latency))
        ):
            return False
        if a.verdicts != b.verdicts:
            return False
    return True


def run_experiment(
    frames: int = FRAMES,
    fractions=RATE_FRACTIONS,
    seeds=SEEDS,
    worker_counts=WORKER_COUNTS,
    repeats: int = TIMING_REPEATS,
    out_path=None,
    tags=None,
):
    units = build_units(frames, fractions, seeds)
    cells = len(units)
    executors = [("serial", SerialExecutor())] + [
        (f"process-{count}", ProcessExecutor(workers=count))
        for count in worker_counts
    ]
    seconds = {name: float("inf") for name, _ in executors}
    records = {}
    # Interleaved min-of-N (the P1/P2 noise-robust estimator); every
    # configuration must reproduce the identical sweep records.
    for _ in range(repeats):
        for name, executor in executors:
            start = time.perf_counter()
            result = aggregate_rate_sweep(executor.map(units))
            seconds[name] = min(seconds[name], time.perf_counter() - start)
            assert name not in records or records_identical(
                records[name], result
            ), f"{name} records diverged between repeats"
            records[name] = result
    baseline = records["serial"]
    for name, _ in executors:
        assert records_identical(baseline, records[name]), (
            f"sharded sweep '{name}' is not record-identical to serial"
        )

    worker_rows = []
    for count in worker_counts:
        name = f"process-{count}"
        worker_rows.append(
            {
                "workers": count,
                "seconds": seconds[name],
                "cells_per_sec": cells / seconds[name],
                "speedup": seconds["serial"] / seconds[name],
            }
        )
    headline = seconds["serial"] / seconds[f"process-{HEADLINE_WORKERS}"]
    payload = {
        "benchmark": "p3_sharded_sweep",
        "created_unix": time.time(),
        "cpu_count": default_worker_count(),
        "workload": {
            "name": f"sweep-{SCENARIO}-grid8x8",
            "scenario": SCENARIO,
            "nodes": NODES,
            "frames": frames,
            "rate_fractions": list(fractions),
            "seeds": list(seeds),
            "cells": cells,
        },
        "parity": "identical",
        "seconds_serial": seconds["serial"],
        "cells_per_sec_serial": cells / seconds["serial"],
        "workers": worker_rows,
        "headline_workers": HEADLINE_WORKERS,
        "headline_speedup": headline,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tags:
        payload.update(tags)
    if out_path is not None:
        Path(out_path).write_text(json.dumps(payload, indent=2) + "\n")

    rows = [["serial", 1, f"{seconds['serial']:.2f}",
             f"{cells / seconds['serial']:.2f}", "1.0x"]]
    for row in worker_rows:
        rows.append(
            [
                "process",
                row["workers"],
                f"{row['seconds']:.2f}",
                f"{row['cells_per_sec']:.2f}",
                f"{row['speedup']:.2f}x",
            ]
        )
    print_experiment(
        "P3",
        f"Sharded sweep executor: {cells} (rate, seed) cells on "
        f"{default_worker_count()} CPU(s), record-identical to serial",
        ["executor", "workers", "seconds", "cells/sec", "speedup"],
        rows,
    )
    return payload


def test_p3_sharded_sweep(benchmark, tmp_path):
    payload = once(
        benchmark,
        lambda: run_experiment(out_path=tmp_path / "BENCH_p3.json"),
    )
    # Parity is unconditional: every executor configuration reproduced
    # the serial records (run_experiment asserts it cell for cell).
    assert payload["parity"] == "identical"
    cpus = payload["cpu_count"]
    if cpus >= HEADLINE_WORKERS:
        assert payload["headline_speedup"] >= 2.0, (
            f"sharded sweep speedup below the 2x acceptance floor at "
            f"{HEADLINE_WORKERS} workers: "
            f"{payload['headline_speedup']:.2f}x"
        )
    else:
        pytest.skip(
            f"scaling floor needs >= {HEADLINE_WORKERS} CPUs, have "
            f"{cpus}; parity was still enforced"
        )
