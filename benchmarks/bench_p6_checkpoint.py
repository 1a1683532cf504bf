"""P6 — checkpointed execution vs the plain run loop.

The robustness tentpole: long fleet campaigns need crash durability,
which means snapshotting the full engine state (protocol RNG, packet
store, scheduler, injection, metrics) to disk every
``DEFAULT_SNAPSHOT_INTERVAL`` frames. Durability that taxes the run
loop would just get switched off, so the acceptance criterion is that
checkpointing at the default interval costs at most ~5% wall-clock on
the P4 headline workload (the 500-link store-mode stability run under
the KV scheduler).

The benchmark interleaves the plain run and the checkpointed run,
asserts the checkpointed run's physics are identical to the plain
run's, and verifies the robustness property itself: an interrupted
run restored from its snapshot finishes bit-identically to the
uninterrupted one.

The headline charges the *directly timed* snapshot cost against the
plain wall-clock, each the minimum over repeats:
``t_plain / (t_plain + t_snapshots)``, floor 0.95 (≈ 5% overhead
ceiling). A checkpointed run does exactly the plain run's frames
(chunked ``sim.run`` calls, parity-asserted identical) plus the
snapshot writes, so the snapshot time *is* the overhead — and timing
only the writes keeps the noise of the other ~97% of the run out of a
few-percent measurement.

Results go to ``BENCH_p6.json`` (see ``benchmarks/run_perf.py``).
"""

from __future__ import annotations

import os
import shutil
import tempfile

from _harness import (
    FRAME,
    NUM_LINKS,
    check_gates,
    gate,
    measure,
    once,
    print_experiment,
    protocol_outcome,
    stability_simulation,
    timings,
    write_payload,
)

import repro.sim.checkpoint as ckpt_mod
from repro.sim.checkpoint import (
    DEFAULT_SNAPSHOT_INTERVAL,
    load_checkpoint_into,
    run_with_checkpoints,
    save_checkpoint,
)

FRAMES = 100  # two default-interval snapshots: one mid-run, one final
TIMING_REPEATS = 5
OVERHEAD_FLOOR = 0.95  # headline t_plain / (t_plain + t_snapshots)


def _outcome(simulation, protocol):
    return {
        "frames": simulation.frames_run,
        **protocol_outcome(protocol),
        "queue_series": list(simulation.metrics.queue_series),
    }


def _plain(frames: int):
    def run(watch):
        simulation, protocol = stability_simulation()
        with watch:
            simulation.run(frames)
        return _outcome(simulation, protocol)
    return run


def _checkpointed(frames: int, path: str, interval: int):
    """A checkpointed run whose stopwatch times only its snapshots."""
    def run(watch):
        def timed_save(*args, **kwargs):
            with watch:
                save_checkpoint(*args, **kwargs)

        simulation, protocol = stability_simulation()
        ckpt_mod.save_checkpoint = timed_save
        try:
            run_with_checkpoints(simulation, frames, path, interval=interval)
        finally:
            ckpt_mod.save_checkpoint = save_checkpoint
        return _outcome(simulation, protocol)
    return run


def _write(frames: int, path: str):
    """One snapshot write after ``frames`` frames (the per-interval cost)."""
    def run(watch):
        simulation, _ = stability_simulation()
        simulation.run(frames)
        with watch:
            save_checkpoint(path, simulation)
        return os.path.getsize(path)
    return run


def _resume(frames: int, path: str, interval: int):
    """Interrupt mid-run, restore onto a fresh build (timed), finish."""
    def run(watch):
        partial, _ = stability_simulation()
        run_with_checkpoints(partial, max(1, frames // 2), path,
                             interval=interval)
        simulation, protocol = stability_simulation()
        with watch:
            load_checkpoint_into(simulation, path)
        simulation.run(frames - simulation.frames_run)
        return _outcome(simulation, protocol)
    return run


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
        # Untimed warm-up: the first save pays one-off import costs
        # (zipfile machinery, backend warm-up) that would otherwise show
        # up as phantom checkpoint overhead in the first timed repeat.
        warm_frames = min(4, frames)
        measure({
            "plain": _plain(warm_frames),
            "snapshots": _checkpointed(
                warm_frames, ckpt_path, max(1, warm_frames // 2)
            ),
        }, 1)
        runs = measure({
            "plain": _plain(frames),
            "snapshots": _checkpointed(frames, ckpt_path, interval),
        }, repeats)
        assert runs["plain"].outcome == runs["snapshots"].outcome, (
            "checkpointing changed the physics"
        )
        checkpoint_bytes = os.path.getsize(ckpt_path)
        runs.update(measure({
            "write": _write(min(frames, interval), ckpt_path),
            "restore": _resume(frames, ckpt_path, interval),
        }, 1))
        # The robustness property itself: interrupt + restore == clean.
        assert runs["restore"].outcome == runs["plain"].outcome, (
            "an interrupted+resumed run diverged from the clean run"
        )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    snapshots = max(1, -(-frames // interval))  # ceil: one per chunk
    plain_s, snapshot_s = runs["plain"].min, runs["snapshots"].min
    overhead = snapshot_s / plain_s
    headline = 1.0 / (1.0 + overhead)
    slots = frames * FRAME.frame_length
    payload = write_payload(out_path, {
        "benchmark": "p6_checkpoint",
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
        "checkpoint_bytes": checkpoint_bytes,
        "overhead_fraction": overhead,
        "headline_speedup": headline,
        "timings": timings(runs),
        "gates": [gate(
            "checkpoint overhead", "min plain / (min plain + min snapshots)",
            headline, OVERHEAD_FLOOR,
        )],
    }, tags)

    print_experiment(
        "P6",
        f"Checkpointed execution: {snapshots} snapshot(s) over {frames} "
        f"frames, interrupt+resume bit-identical",
        ["run (min of repeats)", "seconds", "slots/sec", "overhead"],
        [
            ["plain", f"{plain_s:.2f}", f"{slots / plain_s:.0f}", "-"],
            [f"{snapshots} snapshots (headline)", f"{snapshot_s:.3f}",
             "-", f"+{overhead * 100:.1f}%"],
            ["snapshot write", f"{runs['write'].min:.3f}",
             f"({checkpoint_bytes / 1024:.0f} KiB)", "-"],
            ["snapshot restore", f"{runs['restore'].min:.3f}", "-", "-"],
        ],
    )
    return payload


def test_p6_checkpoint(benchmark, tmp_path):
    check_gates(once(
        benchmark,
        lambda: run_experiment(out_path=tmp_path / "BENCH_p6.json"),
    ))
