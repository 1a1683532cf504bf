#!/usr/bin/env python
"""Run the perf-tagged benchmarks and write machine-readable BENCH_*.json.

Usage (from the repo root or the benchmarks/ directory):

    python benchmarks/run_perf.py [--quick] [--out-dir DIR]

Each perf bench runs with fixed seeds and writes one ``BENCH_<id>.json``
containing throughput (slots/sec), before/after wall-clock, speedup,
and peak RSS, so successive PRs accumulate a comparable perf
trajectory. ``--quick`` shrinks the workloads for a fast smoke signal
(numbers are then not comparable across machines or PRs — the JSON is
tagged accordingly).
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time
from pathlib import Path

_HERE = Path(__file__).resolve().parent
_ROOT = _HERE.parent

# Make `repro` and the sibling bench modules importable when invoked as
# a plain script (no PYTHONPATH needed).
for path in (str(_ROOT / "src"), str(_HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)


def _run_p1(quick: bool, out_dir: Path) -> dict:
    import bench_p1_slot_kernel

    frames = 3 if quick else bench_p1_slot_kernel.FRAMES
    return bench_p1_slot_kernel.run_experiment(
        frames=frames,
        out_path=out_dir / "BENCH_p1.json",
        tags={"quick_mode": bool(quick)},
    )


def _run_p3(quick: bool, out_dir: Path) -> dict:
    import bench_p3_sharded_sweep

    if quick:
        return bench_p3_sharded_sweep.run_experiment(
            frames=30,
            fractions=(0.5, 1.2),
            seeds=(0,),
            worker_counts=(2, 4),
            repeats=1,
            out_path=out_dir / "BENCH_p3.json",
            tags={"quick_mode": True},
        )
    return bench_p3_sharded_sweep.run_experiment(
        out_path=out_dir / "BENCH_p3.json",
        tags={"quick_mode": False},
    )


def _run_p4(quick: bool, out_dir: Path) -> dict:
    import bench_p4_runloop

    frames = 3 if quick else bench_p4_runloop.FRAMES
    return bench_p4_runloop.run_experiment(
        frames=frames,
        out_path=out_dir / "BENCH_p4.json",
        tags={"quick_mode": bool(quick)},
    )


def _run_p5(quick: bool, out_dir: Path) -> dict:
    import bench_p5_fleet

    if quick:
        return bench_p5_fleet.run_experiment(
            frames=25,
            networks=3,
            nodes=12,
            worker_counts=(2, 4),
            repeats=1,
            out_path=out_dir / "BENCH_p5.json",
            tags={"quick_mode": True},
        )
    return bench_p5_fleet.run_experiment(
        out_path=out_dir / "BENCH_p5.json",
        tags={"quick_mode": False},
    )


def _run_p6(quick: bool, out_dir: Path) -> dict:
    import bench_p6_checkpoint

    if quick:
        return bench_p6_checkpoint.run_experiment(
            frames=6,
            interval=3,
            repeats=1,
            out_path=out_dir / "BENCH_p6.json",
            tags={"quick_mode": True},
        )
    return bench_p6_checkpoint.run_experiment(
        out_path=out_dir / "BENCH_p6.json",
        tags={"quick_mode": False},
    )


def _run_p7(quick: bool, out_dir: Path) -> dict:
    import bench_p7_streaming

    if quick:
        return bench_p7_streaming.run_experiment(
            base_frames=500,
            long_factor=8,
            repeats=2,
            out_path=out_dir / "BENCH_p7.json",
            tags={"quick_mode": True},
        )
    return bench_p7_streaming.run_experiment(
        out_path=out_dir / "BENCH_p7.json",
        tags={"quick_mode": False},
    )


def _run_p8(quick: bool, out_dir: Path) -> dict:
    import bench_p8_campaign

    if quick:
        return bench_p8_campaign.run_experiment(
            frames=30,
            seeds=(0,),
            tolerance=0.25,
            repeats=1,
            out_path=out_dir / "BENCH_p8.json",
            tags={"quick_mode": True},
        )
    return bench_p8_campaign.run_experiment(
        out_path=out_dir / "BENCH_p8.json",
        tags={"quick_mode": False},
    )


def _run_p9(quick: bool, out_dir: Path) -> dict:
    import bench_p9_batched_fleet

    if quick:
        return bench_p9_batched_fleet.run_experiment(
            frames=20,  # the stability assessor's minimum horizon
            networks=4,
            repeats=1,
            out_path=out_dir / "BENCH_p9.json",
            tags={"quick_mode": True},
        )
    return bench_p9_batched_fleet.run_experiment(
        out_path=out_dir / "BENCH_p9.json",
        tags={"quick_mode": False},
    )


#: Registry of perf benches: id -> (runner(quick, out_dir) -> payload,
#: headline-speedup floor or None). The floor is per-bench: P1's
#: acceptance criterion is >= 3x; future benches declare their own.
#: P3's 2x-at-4-workers floor needs real cores, so it is enforced
#: CPU-conditionally by its pytest wrapper, not here.
#: P4 records fused-loop throughput with no speedup headline; its
#: history-overhead ceiling is enforced by the pytest wrapper.
#: P5 (the scenario fleet) is CPU-conditional like P3.
#: P6 (checkpointed execution) inverts the convention: its "speedup"
#: is plain/checkpointed wall-clock, so the 0.95 floor is an overhead
#: ceiling (~5%) rather than a scaling target.
#: P7 (streaming metrics) follows P6's convention: the headline is
#: streaming/full wall-clock (floor 0.95 = overhead ceiling); its
#: second floor — streaming peak RSS flat w.r.t. horizon — is asserted
#: by the bench itself (``streaming_rss_flat`` in BENCH_p7.json).
#: P8 (frontier bisection) counts simulations, not seconds: its 2x
#: floor (bisection vs fixed grid at equal boundary resolution) is
#: deterministic on any host, and the bench itself asserts the two
#: instruments agree on the boundary within one tolerance.
#: P9 (the batched fleet) reports its speedups over serial with no
#: floor: serial runs scan like batched ones. Its floor — at most 5%
#: of the simulated slots stepped one by one, serial and batched — is
#: a deterministic count, asserted by the pytest wrapper.
PERF_BENCHES = {
    "p1": (_run_p1, 3.0),
    "p3": (_run_p3, None),
    "p4": (_run_p4, None),
    "p5": (_run_p5, None),
    "p6": (_run_p6, 0.95),
    "p7": (_run_p7, 0.95),
    "p8": (_run_p8, 2.0),
    "p9": (_run_p9, None),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="shrunken workloads: fast smoke signal, not comparable numbers",
    )
    parser.add_argument(
        "--out-dir",
        type=Path,
        default=None,
        help=(
            "directory for BENCH_*.json (default: repo root; a quick "
            "run defaults to a temp dir so it cannot overwrite the "
            "committed full-run baseline)"
        ),
    )
    parser.add_argument(
        "--only",
        choices=sorted(PERF_BENCHES),
        action="append",
        help="run a subset of the perf benches (repeatable)",
    )
    args = parser.parse_args(argv)
    if args.out_dir is None:
        if args.quick:
            args.out_dir = Path(tempfile.mkdtemp(prefix="bench-quick-"))
        else:
            args.out_dir = _ROOT
    args.out_dir.mkdir(parents=True, exist_ok=True)

    selected = args.only or sorted(PERF_BENCHES)
    failures = []
    for bench_id in selected:
        runner, floor = PERF_BENCHES[bench_id]
        print(f"== perf bench {bench_id} ==")
        start = time.perf_counter()
        # The bench itself writes its tagged BENCH_*.json (single write).
        payload = runner(args.quick, args.out_dir)
        elapsed = time.perf_counter() - start
        headline = payload.get("headline_speedup")
        print(
            f"   wrote {args.out_dir / f'BENCH_{bench_id}.json'} in "
            f"{elapsed:.1f}s"
            + (f" (headline speedup {headline:.1f}x)" if headline else "")
        )
        if (
            floor is not None
            and headline is not None
            and headline < floor
            and not args.quick
        ):
            failures.append(bench_id)
    if failures:
        print(f"FAIL: speedup floor missed by: {', '.join(failures)}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
