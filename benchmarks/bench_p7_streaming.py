"""P7 — streaming metrics retention vs full history at long horizons.

The bounded-memory tentpole: ``metrics="streaming"`` folds every
per-frame series into O(1) accumulators (compensated sums, a ring
window, a quantile sketch) and periodically summarises-and-releases
delivered packets from the store, so a run's peak memory is a function
of the *live* state, not the horizon. Full retention keeps the whole
history — its memory grows linearly with frames, which is exactly what
locks 1e6+-frame soak runs out of reach.

The benchmark runs one cheap MAC workload at a short and a long
horizon (16x apart; the default long horizon is 1,000,000 frames —
10,000x the 100-frame default the P1..P6 benches use) in BOTH
retention modes, each in its OWN SUBPROCESS: ``ru_maxrss`` is a
per-process high-water mark and never goes down, so mode/horizon
combinations measured in one process would all report the largest
run's peak. The child prints one JSON line; the parent asserts parity
(identical ``CellResult`` records per horizon) and checks two floors:

* memory — streaming peak RSS must be decoupled from the horizon:
  its growth over the 16x span stays below ``RSS_COUPLING_TOLERANCE``
  (5%) of what FULL retention's RSS grows over the same span. The
  comparison is against full's growth, not streaming's own baseline,
  because the baseline is tens of MiB: allocator fragmentation over
  ~15k store compactions adds a few MiB that would fail a naive
  relative check while being plainly horizon-flat next to the
  hundreds of MiB a retained history costs (measured full run:
  92 -> 859 MiB over 62.5k -> 1e6 frames; streaming: 40 -> 48 MiB);
* throughput — the headline, streaming over full wall-clock, must
  stay >= 0.95 (the accumulators must not tax the run loop). Container
  wall-clock drifts run to run, so this ratio comes from a dedicated
  child interleaving both modes min-of-N at the short horizon; the
  long-horizon single-run frames/sec are reported alongside.

Results go to ``BENCH_p7.json`` (see ``benchmarks/run_perf.py``).
"""

from __future__ import annotations

import json
import math
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

BASE_FRAMES = 62_500
LONG_FACTOR = 16  # long horizon = 1,000,000 frames by default
TIMING_REPEATS = 3
THROUGHPUT_FLOOR = 0.95
# Streaming's long-horizon RSS growth must stay below this fraction of
# full retention's growth over the same 16x horizon span.
RSS_COUPLING_TOLERANCE = 0.05

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


def _child_main(metrics: str, frames: int) -> None:
    """Run one (mode, horizon) cell and print its measurement as JSON."""
    # Untimed warm-up: first-run import/alloc costs would otherwise
    # show up as phantom throughput loss (the horizon runs are long,
    # but the short-horizon cells are seconds). Its memory footprint is
    # negligible next to the measured horizon.
    _build_spec(min(500, frames), metrics).run()
    spec = _build_spec(frames, metrics)
    start = time.perf_counter()
    record = spec.run()
    seconds = time.perf_counter() - start
    # The exact-parity contract: these fields are bit-identical across
    # retention modes at any horizon. The verdict's slope/tail numbers
    # switch to the windowed estimator once the horizon exceeds the
    # ring window — that recompute parity is pinned by
    # tests/test_streaming_parity.py, not here — but the stability
    # *decision* on this fixed workload must agree.
    exact = {
        "rate": record.rate,
        "throughput": record.throughput,
        "latency": record.latency,
        "frame_length": record.frame_length,
        "injected": record.injected,
        "delivered": record.delivered,
        "failures": record.failures,
        "stable": record.verdict.stable,
    }
    print(
        json.dumps(
            {
                "metrics": metrics,
                "frames": frames,
                "seconds": seconds,
                "frames_per_sec": frames / seconds,
                "peak_rss_kb": resource.getrusage(
                    resource.RUSAGE_SELF
                ).ru_maxrss,
                "exact_fields": exact,
            }
        )
    )


def _throughput_child_main(frames: int, repeats: int) -> None:
    """Interleaved min-of-N of both modes in ONE process.

    The single-run per-mode children are fine for peak RSS (which is
    deterministic) but container wall-clock drifts run to run, so the
    throughput ratio comes from interleaved repeats — the same
    noise-robust min-of-N estimator the P1..P6 benches use — inside one
    process so both modes see the same machine state.
    """
    _build_spec(min(500, frames), "full").run()
    best = {"full": math.inf, "streaming": math.inf}
    for _ in range(repeats):
        for metrics in ("full", "streaming"):
            spec = _build_spec(frames, metrics)
            start = time.perf_counter()
            spec.run()
            best[metrics] = min(best[metrics], time.perf_counter() - start)
    print(
        json.dumps(
            {
                "frames": frames,
                "repeats": repeats,
                "seconds_full": best["full"],
                "seconds_streaming": best["streaming"],
            }
        )
    )


def _spawn(argv: list) -> dict:
    """Spawn a fresh measurement process (ru_maxrss is monotone)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(_ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__)] + [str(a) for a in argv],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _measure(metrics: str, frames: int) -> dict:
    return _spawn(["--child", metrics, frames])


def run_experiment(
    base_frames: int = BASE_FRAMES,
    long_factor: int = LONG_FACTOR,
    repeats: int = TIMING_REPEATS,
    out_path=None,
    tags=None,
):
    from _harness import print_experiment

    long_frames = base_frames * long_factor
    cells = {}
    for metrics in ("full", "streaming"):
        for frames in (base_frames, long_frames):
            cells[(metrics, frames)] = _measure(metrics, frames)
    timing = _spawn(["--child-throughput", base_frames, repeats])

    # Parity: per horizon, every exact-contract field (throughput,
    # mean latency, counts, the stability decision) is identical
    # across retention modes.
    for frames in (base_frames, long_frames):
        assert (
            cells[("streaming", frames)]["exact_fields"]
            == cells[("full", frames)]["exact_fields"]
        ), f"streaming diverged from full retention at {frames} frames"

    rss = {key: cell["peak_rss_kb"] for key, cell in cells.items()}
    rss_growth_streaming = (
        rss[("streaming", long_frames)] / rss[("streaming", base_frames)]
    )
    rss_growth_full = rss[("full", long_frames)] / rss[("full", base_frames)]
    delta_streaming = (
        rss[("streaming", long_frames)] - rss[("streaming", base_frames)]
    )
    delta_full = rss[("full", long_frames)] - rss[("full", base_frames)]
    rss_coupling = delta_streaming / delta_full if delta_full > 0 else 0.0
    headline = timing["seconds_full"] / timing["seconds_streaming"]
    payload = {
        "benchmark": "p7_streaming",
        "created_unix": time.time(),
        "workload": {
            "name": "mac-roundrobin-4stations",
            "frames_short": base_frames,
            "frames_long": long_frames,
            "horizon_vs_bench_default": long_frames / 100.0,
        },
        "parity": "identical",
        "cells": {
            f"{metrics}@{frames}": {
                k: v for k, v in cell.items() if k != "exact_fields"
            }
            for (metrics, frames), cell in cells.items()
        },
        "rss_growth_streaming": rss_growth_streaming,
        "rss_growth_full": rss_growth_full,
        "rss_coupling": rss_coupling,
        "rss_coupling_tolerance": RSS_COUPLING_TOLERANCE,
        "streaming_rss_flat": rss_coupling <= RSS_COUPLING_TOLERANCE,
        "timing": timing,
        "headline_speedup": headline,
        "headline_floor": THROUGHPUT_FLOOR,
    }
    if tags:
        payload.update(tags)
    if out_path is not None:
        Path(out_path).write_text(json.dumps(payload, indent=2) + "\n")

    rows = []
    for (metrics, frames), cell in sorted(cells.items()):
        rows.append(
            [
                f"{metrics}@{frames}",
                f"{cell['seconds']:.1f}",
                f"{cell['frames_per_sec']:.0f}",
                f"{cell['peak_rss_kb'] / 1024:.0f} MiB",
            ]
        )
    rows.append(
        [
            f"RSS growth ({long_factor}x horizon)",
            "-",
            "-",
            f"x{rss_growth_streaming:.3f} (full: x{rss_growth_full:.3f}, "
            f"coupling {rss_coupling * 100:.1f}%)",
        ]
    )
    rows.append(
        [
            f"throughput (min of {repeats}, interleaved)",
            f"{timing['seconds_streaming']:.1f}",
            f"{base_frames / timing['seconds_streaming']:.0f}",
            f"x{headline:.3f} vs full",
        ]
    )
    print_experiment(
        "P7",
        f"Streaming retention: horizon-flat memory at {long_frames} "
        f"frames, throughput x{headline:.2f} vs full",
        ["cell", "seconds", "frames/sec", "peak RSS"],
        rows,
    )
    return payload


def test_p7_streaming(benchmark, tmp_path):
    from _harness import once

    payload = once(
        benchmark,
        lambda: run_experiment(out_path=tmp_path / "BENCH_p7.json"),
    )
    assert payload["parity"] == "identical"
    assert payload["streaming_rss_flat"], (
        f"streaming peak RSS growth is coupled to the horizon: "
        f"{payload['rss_coupling'] * 100:.1f}% of full retention's "
        f"growth (tolerance {RSS_COUPLING_TOLERANCE * 100:.0f}%)"
    )
    assert payload["headline_speedup"] >= THROUGHPUT_FLOOR, (
        f"streaming throughput fell below {THROUGHPUT_FLOOR}x full "
        f"retention: x{payload['headline_speedup']:.3f}"
    )


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--child":
        sys.path.insert(0, str(_ROOT / "src"))
        _child_main(sys.argv[2], int(sys.argv[3]))
    elif len(sys.argv) == 4 and sys.argv[1] == "--child-throughput":
        sys.path.insert(0, str(_ROOT / "src"))
        _throughput_child_main(int(sys.argv[2]), int(sys.argv[3]))
    else:
        sys.path.insert(0, str(_ROOT / "src"))
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        run_experiment()
