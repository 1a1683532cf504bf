"""P6 — checkpointed execution vs the plain run loop.

The robustness tentpole: long fleet campaigns need crash durability,
which means snapshotting the full engine state (protocol RNG, packet
store, scheduler, injection, metrics) to disk every
``DEFAULT_SNAPSHOT_INTERVAL`` frames. Durability that taxes the run
loop would just get switched off, so the acceptance criterion is that
checkpointing at the default interval costs at most ~5% wall-clock on
the P4 headline workload (the 500-link store-mode stability run under
the KV scheduler).

The benchmark interleaves the plain run and the checkpointed run
(min-of-N, the P1..P5 noise-robust estimator), asserts the checkpointed
run's physics are identical to the plain run's, and additionally
verifies the actual robustness property: an interrupted run restored
from its snapshot finishes bit-identically to the uninterrupted one.

The headline charges the *directly timed* snapshot cost against the
plain wall-clock: ``t_plain / (t_plain + t_snapshots)``, floor 0.95
(≈ 5% overhead ceiling). A checkpointed run does exactly the plain
run's frames (chunked ``sim.run`` calls, parity-asserted identical)
plus the snapshot writes, so the snapshot time *is* the overhead — and
measuring it directly cancels the noise of the other ~97% of the run,
which on this container (same-process plain repeats spread ~1.6-2.4s)
otherwise drowns a few-percent delta in the end-to-end min-of-N. The
end-to-end checkpointed wall-clock is still measured and reported.

Results go to ``BENCH_p6.json`` (see ``benchmarks/run_perf.py``).
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import tempfile
import time
from pathlib import Path

from _harness import once, print_experiment
from bench_p1_slot_kernel import FRAME, NUM_LINKS, build_model

import repro
from repro.sim.checkpoint import (
    DEFAULT_SNAPSHOT_INTERVAL,
    load_checkpoint_into,
    run_with_checkpoints,
    save_checkpoint,
)
from repro.staticsched import KvScheduler

FRAMES = 100  # two default-interval snapshots: one mid-run, one final
TIMING_REPEATS = 5
OVERHEAD_FLOOR = 0.95  # headline t_plain / t_checkpointed must stay above


def _build_simulation():
    """The P4 headline workload: 500-link store-mode stability run."""
    model = build_model()
    routing = repro.build_routing_table(model.network)
    injection = repro.uniform_pair_injection(
        routing, model, FRAME.rate, num_generators=8, rng=1017
    )
    protocol = repro.DynamicProtocol(
        model, KvScheduler(), FRAME.rate, params=FRAME, rng=17,
        store=injection.store,
    )
    return repro.FrameSimulation(protocol, injection), protocol


def _outcome(simulation, protocol):
    return {
        "frames": simulation.frames_run,
        "delivered": len(protocol.delivered),
        "in_system": protocol.packets_in_system,
        "failures": protocol.potential.total_failures,
        "queue_series": list(simulation.metrics.queue_series),
    }


def _plain_run(frames: int):
    simulation, protocol = _build_simulation()
    start = time.perf_counter()
    simulation.run(frames)
    seconds = time.perf_counter() - start
    return seconds, _outcome(simulation, protocol)


def _checkpointed_run(frames: int, path: str, interval: int):
    """Returns (wall seconds, outcome, seconds spent inside saves)."""
    import repro.sim.checkpoint as ckpt_mod

    save_seconds = [0.0]
    original = ckpt_mod.save_checkpoint

    def timed_save(*args, **kwargs):
        t0 = time.perf_counter()
        original(*args, **kwargs)
        save_seconds[0] += time.perf_counter() - t0

    simulation, protocol = _build_simulation()
    ckpt_mod.save_checkpoint = timed_save
    try:
        start = time.perf_counter()
        run_with_checkpoints(simulation, frames, path, interval=interval)
        seconds = time.perf_counter() - start
    finally:
        ckpt_mod.save_checkpoint = original
    return seconds, _outcome(simulation, protocol), save_seconds[0]


def _resume_outcome(frames: int, path: str, interval: int):
    """Interrupt mid-run, restore onto a fresh build, finish."""
    interrupt = max(1, frames // 2)
    partial, _ = _build_simulation()
    run_with_checkpoints(partial, interrupt, path, interval=interval)
    simulation, protocol = _build_simulation()
    start = time.perf_counter()
    load_checkpoint_into(simulation, path)
    restore_seconds = time.perf_counter() - start
    simulation.run(frames - simulation.frames_run)
    return restore_seconds, _outcome(simulation, protocol)


def run_experiment(
    frames: int = FRAMES,
    interval: int = DEFAULT_SNAPSHOT_INTERVAL,
    repeats: int = TIMING_REPEATS,
    out_path=None,
    tags=None,
):
    tmp = tempfile.mkdtemp(prefix="bench-p6-")
    try:
        ckpt_path = os.path.join(tmp, "bench.ckpt")
        seconds = {"plain": float("inf"), "checkpointed": float("inf")}
        outcomes = {}
        # Untimed warm-up: the first save pays one-off import/JIT costs
        # (zipfile machinery, backend warm-up) that would otherwise show
        # up as phantom checkpoint overhead in the first timed repeat.
        warm_frames = min(4, frames)
        _plain_run(warm_frames)
        _checkpointed_run(warm_frames, ckpt_path, max(1, warm_frames // 2))
        snapshot_seconds = float("inf")
        for _ in range(repeats):
            plain_s, plain_outcome = _plain_run(frames)
            ckpt_s, ckpt_outcome, save_s = _checkpointed_run(
                frames, ckpt_path, interval
            )
            seconds["plain"] = min(seconds["plain"], plain_s)
            seconds["checkpointed"] = min(seconds["checkpointed"], ckpt_s)
            snapshot_seconds = min(snapshot_seconds, save_s)
            outcomes["plain"] = plain_outcome
            outcomes["checkpointed"] = ckpt_outcome
        assert outcomes["plain"] == outcomes["checkpointed"], (
            "checkpointing changed the physics"
        )
        checkpoint_bytes = os.path.getsize(ckpt_path)

        # One isolated snapshot write, timed (the per-interval cost).
        simulation, _ = _build_simulation()
        simulation.run(min(frames, interval))
        start = time.perf_counter()
        save_checkpoint(ckpt_path, simulation)
        write_seconds = time.perf_counter() - start

        # The robustness property itself: interrupt + restore == clean.
        restore_seconds, resumed_outcome = _resume_outcome(
            frames, ckpt_path, interval
        )
        assert resumed_outcome == outcomes["plain"], (
            "an interrupted+resumed run diverged from the clean run"
        )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    snapshots = max(1, -(-frames // interval))  # ceil: one per chunk
    overhead = snapshot_seconds / seconds["plain"]
    headline = 1.0 / (1.0 + overhead)
    slots = frames * FRAME.frame_length
    payload = {
        "benchmark": "p6_checkpoint",
        "created_unix": time.time(),
        "workload": {
            "name": "stability-500link-kv",
            "num_links": NUM_LINKS,
            "frames": frames,
            "frame_length": FRAME.frame_length,
            "slots": slots,
            "snapshot_interval": interval,
            "snapshots_written": snapshots,
        },
        "parity": "identical",
        "resume_parity": "identical",
        "seconds_plain": seconds["plain"],
        "seconds_checkpointed": seconds["checkpointed"],
        "snapshot_seconds": snapshot_seconds,
        "checkpoint_write_seconds": write_seconds,
        "checkpoint_restore_seconds": restore_seconds,
        "checkpoint_bytes": checkpoint_bytes,
        "overhead_fraction": overhead,
        "end_to_end_overhead_fraction": (
            seconds["checkpointed"] / seconds["plain"] - 1.0
        ),
        "headline_speedup": headline,
        "headline_floor": OVERHEAD_FLOOR,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tags:
        payload.update(tags)
    if out_path is not None:
        Path(out_path).write_text(json.dumps(payload, indent=2) + "\n")

    end_to_end_pct = payload["end_to_end_overhead_fraction"] * 100.0
    print_experiment(
        "P6",
        f"Checkpointed execution: {snapshots} snapshot(s) over {frames} "
        f"frames, interrupt+resume bit-identical",
        ["run", "seconds", "slots/sec", "overhead"],
        [
            ["plain", f"{seconds['plain']:.2f}",
             f"{slots / seconds['plain']:.0f}", "-"],
            ["checkpointed", f"{seconds['checkpointed']:.2f}",
             f"{slots / seconds['checkpointed']:.0f}",
             f"{end_to_end_pct:+.1f}% (noisy)"],
            [f"{snapshots} snapshots (headline)", f"{snapshot_seconds:.3f}",
             "-", f"+{overhead * 100:.1f}%"],
            ["snapshot write", f"{write_seconds:.3f}",
             f"({checkpoint_bytes / 1024:.0f} KiB)", "-"],
            ["snapshot restore", f"{restore_seconds:.3f}", "-", "-"],
        ],
    )
    return payload


def test_p6_checkpoint(benchmark, tmp_path):
    payload = once(
        benchmark,
        lambda: run_experiment(out_path=tmp_path / "BENCH_p6.json"),
    )
    assert payload["parity"] == "identical"
    assert payload["resume_parity"] == "identical"
    assert payload["headline_speedup"] >= OVERHEAD_FLOOR, (
        f"checkpoint overhead above the ~5% ceiling: "
        f"{payload['overhead_fraction'] * 100:.1f}%"
    )
