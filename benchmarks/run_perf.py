#!/usr/bin/env python
"""Run the perf benches and write machine-readable BENCH_*.json.

Usage (from the repo root or the benchmarks/ directory):

    python benchmarks/run_perf.py [--quick] [--out-dir DIR] [--only ID]

Each perf bench runs with fixed seeds in a child interpreter of its
own, so the payload's peak RSS is that bench's alone. It times its
runners through ``_harness.measure`` and writes one ``BENCH_<id>.json``
through ``_harness.write_payload``: per-runner samples with min, median
and IQR, the environment fingerprint, peak RSS, and its gates (each
contract with the statistic it is judged on). A payload missing any of
these fails the run; so does a missed gate in a full run. ``--quick``
shrinks the workloads for a fast smoke signal (numbers are then not
comparable across machines or PRs — the JSON is tagged accordingly,
and its gates are reported but not enforced).
"""

from __future__ import annotations

import argparse
import importlib
import json
import subprocess
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

from _harness import payload_problems  # noqa: E402

#: id -> (bench module, ``run_experiment`` overrides for ``--quick``).
PERF_BENCHES = {
    "p4": ("bench_p4_runloop", {"frames": 3, "repeats": 3}),
    "p6": ("bench_p6_checkpoint", {"frames": 6, "interval": 3,
                                   "repeats": 1}),
    "p7": ("bench_p7_streaming", {"base_frames": 500, "long_factor": 8,
                                  "repeats": 2}),
    "p8": ("bench_p8_campaign", {"frames": 30, "seeds": (0,),
                                 "tolerance": 0.25, "repeats": 1}),
    # 20 frames: the stability assessor's minimum horizon.
    "p9": ("bench_p9_batched_fleet", {"frames": 20, "networks": 4,
                                      "repeats": 1}),
}


def run_bench(bench_id: str, out_path: str, quick: bool) -> None:
    """Run one perf bench in this process; it writes ``out_path``."""
    module, quick_kwargs = PERF_BENCHES[bench_id]
    importlib.import_module(module).run_experiment(
        out_path=Path(out_path),
        tags={"quick_mode": quick},
        **(quick_kwargs if quick else {}),
    )


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

    failures = []
    for bench_id in args.only or sorted(PERF_BENCHES):
        print(f"== perf bench {bench_id} ==", flush=True)
        out_path = args.out_dir / f"BENCH_{bench_id}.json"
        start = time.perf_counter()
        # A fresh interpreter per bench: peak RSS is a per-process
        # high-water mark, so benches sharing one process would all
        # report the largest peak seen before them.
        child = subprocess.run(
            [sys.executable, "-c",
             "import sys, run_perf; "
             "run_perf.run_bench(sys.argv[1], sys.argv[2], "
             "sys.argv[3] == '1')",
             bench_id, str(out_path), "1" if args.quick else "0"],
            cwd=_HERE,
        )
        if child.returncode:
            failures.append(f"{bench_id} exited with {child.returncode}")
            continue
        payload = json.loads(out_path.read_text())
        print(f"   wrote {out_path} in {time.perf_counter() - start:.1f}s")
        problems = payload_problems(payload)
        if problems:
            failures.append(f"{bench_id} payload lacks {', '.join(problems)}")
        for g in payload.get("gates", []):
            print(
                f"   gate {g['name']}: {g['statistic']} = {g['value']:.4g} "
                f"({g['kind']} {g['bound']}) "
                + ("ok" if g["passed"] else "MISSED")
            )
            if not g["passed"] and not args.quick:
                failures.append(f"{bench_id} missed gate '{g['name']}'")
    if failures:
        print("FAIL: " + "; ".join(failures))
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
