"""P7 — streaming metrics retention vs full history at long horizons.

The bounded-memory tentpole: ``metrics="streaming"`` folds every
per-frame series into O(1) accumulators (compensated sums, a ring
window, a quantile sketch) and periodically summarises-and-releases
delivered packets from the store, so a run's peak memory is a function
of the *live* state, not the horizon. Full retention keeps the whole
history — its memory grows linearly with frames, which is exactly what
locks 1e6+-frame soak runs out of reach.

The benchmark runs one cheap MAC workload at a short and a long
horizon (16x apart; the default long horizon is 1,000,000 frames) in
BOTH retention modes, each in its OWN SUBPROCESS: ``ru_maxrss`` is a
per-process high-water mark and never goes down, so mode/horizon
combinations measured in one process would all report the largest
run's peak. Each child times its runs through ``_harness.measure`` and
reports one JSON line through ``_harness.write_payload``, which stamps
its peak RSS; the parent asserts parity (identical ``CellResult``
exact fields per horizon) and checks two gates:

* memory — streaming peak RSS must be decoupled from the horizon:
  its growth over the 16x span stays below ``RSS_COUPLING_TOLERANCE``
  (5%) of what FULL retention's RSS grows over the same span. The
  comparison is against full's growth, not streaming's own baseline,
  because the baseline is tens of MiB: allocator fragmentation over
  ~15k store compactions adds a few MiB that would fail a naive
  relative check while being plainly horizon-flat next to the
  hundreds of MiB a retained history costs (measured full run:
  92 -> 859 MiB over 62.5k -> 1e6 frames; streaming: 40 -> 48 MiB);
* throughput — the headline, full over streaming wall-clock at the
  short horizon, must stay >= 0.95 (the accumulators must not tax the
  run loop). It comes from a dedicated child running the two modes
  back to back in each repeat, as the median over repeats of the
  paired ratio: single runs here swing by up to ±50% between slow and
  fast windows of the host, which a ratio of minima does not cancel
  and a pair run back to back mostly does. The long-horizon single-run
  frames/sec are reported alongside.

Results go to ``BENCH_p7.json`` (see ``benchmarks/run_perf.py``).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from _harness import (
    check_gates,
    gate,
    measure,
    median_ratio,
    once,
    print_experiment,
    timings,
    write_payload,
)

BASE_FRAMES = 62_500
LONG_FACTOR = 16  # long horizon = 1,000,000 frames by default
TIMING_REPEATS = 5
THROUGHPUT_FLOOR = 0.95
# Streaming's long-horizon RSS growth must stay below this fraction of
# full retention's growth over the same 16x horizon span.
RSS_COUPLING_TOLERANCE = 0.05
MODES = ("full", "streaming")

_ROOT = Path(__file__).resolve().parents[1]


def _build_spec(frames: int, metrics: str):
    from repro.scenario import ScenarioSpec

    # The cheapest workload in the scenario registry (~5k frames/sec):
    # horizon dominates, per-frame cost doesn't.
    return ScenarioSpec(
        topology="mac",
        topology_kwargs={"num_stations": 4},
        model="mac",
        scheduler="round-robin",
        frames=frames,
        seed=1017,
        metrics=metrics,
    )


def _run(metrics: str, frames: int):
    def run(watch):
        record = _build_spec(frames, metrics).run()
        # The exact-parity contract: these fields are bit-identical
        # across retention modes at any horizon. The verdict's
        # slope/tail numbers switch to the windowed estimator once the
        # horizon exceeds the ring window — that recompute parity is
        # pinned by tests/test_streaming_parity.py, not here — but the
        # stability *decision* on this fixed workload must agree.
        return {
            "rate": record.rate,
            "throughput": record.throughput,
            "latency": record.latency,
            "frame_length": record.frame_length,
            "injected": record.injected,
            "delivered": record.delivered,
            "failures": record.failures,
            "stable": record.verdict.stable,
        }
    return run


def _child_main(frames: int, repeats: int, modes) -> None:
    """Measure ``modes`` at ``frames`` in this fresh interpreter and
    report the outcomes, timings and peak RSS on stdout."""
    # Untimed warm-up: first-run import/alloc costs would otherwise
    # show up as phantom throughput loss. Its memory footprint is
    # negligible next to the measured horizon.
    measure({m: _run(m, min(500, frames)) for m in modes}, 1)
    runs = measure({m: _run(m, frames) for m in modes}, repeats)
    write_payload("-", {
        "outcomes": {m: runs[m].outcome for m in modes},
        "timings": timings(runs),
    })


def _spawn(frames: int, repeats: int, modes) -> dict:
    """Measure in a fresh process (ru_maxrss is monotone)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(_ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child",
         str(frames), str(repeats), *modes],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_experiment(
    base_frames: int = BASE_FRAMES,
    long_factor: int = LONG_FACTOR,
    repeats: int = TIMING_REPEATS,
    out_path=None,
    tags=None,
):
    horizons = (base_frames, base_frames * long_factor)
    cells = {
        (m, frames): _spawn(frames, 1, [m])
        for m in MODES for frames in horizons
    }
    timing = _spawn(base_frames, repeats, MODES)

    # Parity: per horizon, every exact-contract field (throughput,
    # mean latency, counts, the stability decision) is identical
    # across retention modes.
    for frames in horizons:
        assert (
            cells[("streaming", frames)]["outcomes"]["streaming"]
            == cells[("full", frames)]["outcomes"]["full"]
        ), f"streaming diverged from full retention at {frames} frames"

    rss = {key: cell["peak_rss_kb"] for key, cell in cells.items()}
    growth = {
        m: rss[(m, horizons[1])] - rss[(m, horizons[0])] for m in MODES
    }
    rss_coupling = (
        growth["streaming"] / growth["full"] if growth["full"] > 0 else 0.0
    )
    spread = timing["timings"]
    headline = median_ratio(
        spread["full"]["samples"], spread["streaming"]["samples"]
    )
    cell_rows = {
        f"{m}@{frames}": {
            "seconds": cell["timings"][m]["min"],
            "frames_per_sec": frames / cell["timings"][m]["min"],
            "peak_rss_kb": cell["peak_rss_kb"],
        }
        for (m, frames), cell in cells.items()
    }
    payload = write_payload(out_path, {
        "benchmark": "p7_streaming",
        "workload": {
            "name": "mac-roundrobin-4stations",
            "frames_short": horizons[0],
            "frames_long": horizons[1],
        },
        "parity": "identical",
        "cells": cell_rows,
        "rss_growth_kb": growth,
        "rss_coupling": rss_coupling,
        "headline_speedup": headline,
        "timings": spread,
        "gates": [
            gate("streaming throughput",
                 "median paired ratio full / streaming seconds", headline,
                 THROUGHPUT_FLOOR),
            gate("streaming RSS flat",
                 "streaming / full peak-RSS growth over the horizon span",
                 rss_coupling, RSS_COUPLING_TOLERANCE, ceiling=True),
        ],
    }, tags)

    rows = [
        [name, f"{row['seconds']:.1f}", f"{row['frames_per_sec']:.0f}",
         f"{row['peak_rss_kb'] / 1024:.0f} MiB"]
        for name, row in cell_rows.items()
    ]
    rows.append([
        f"RSS growth ({long_factor}x horizon)", "-", "-",
        f"+{growth['streaming'] / 1024:.1f} MiB (full: "
        f"+{growth['full'] / 1024:.1f} MiB, coupling "
        f"{rss_coupling * 100:.1f}%)",
    ])
    rows.append([
        f"throughput (median of {repeats} pairs)",
        f"{spread['streaming']['min']:.1f}",
        f"{base_frames / spread['streaming']['min']:.0f}",
        f"x{headline:.3f} vs full",
    ])
    print_experiment(
        "P7",
        f"Streaming retention: horizon-flat memory at {horizons[1]} "
        f"frames, throughput x{headline:.2f} vs full",
        ["cell", "seconds", "frames/sec", "peak RSS"],
        rows,
    )
    return payload


def test_p7_streaming(benchmark, tmp_path):
    check_gates(once(
        benchmark,
        lambda: run_experiment(out_path=tmp_path / "BENCH_p7.json"),
    ))


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        _child_main(int(sys.argv[2]), int(sys.argv[3]), sys.argv[4:])
    else:
        run_experiment()
