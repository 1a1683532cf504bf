#!/usr/bin/env python3
"""The repository benchmark: one named workload per invocation.

Usage, from the repository root::

    python3 perfbench/run.py --workload fleet-sparse --seed 0 --seconds 30 --trace 0

Workloads (``workloads.json``): ``fleet-sparse``, ``sinr-dense``,
``markov-bursty``. Everything runs in this process on
one thread, except the fresh-interpreter probes for ``setup_s`` and
``peak_rss_mib`` (``setup_probe.py``), which run one at a time.

``--trace 0`` measures the end-to-end metrics. For ``--seconds`` it
runs two kinds of pass in turn:

* the executor pass is the workload's executor ``map`` over its units
  (each unit builds its spec inside the run);
* the stepped pass advances every unit by ``FrameSimulation.run(1)``
  through ``SerialExecutor``. Its records are the serial reference:
  batched equals serial on ``fleet-sparse``, resumed equals
  uninterrupted on ``markov-bursty``.

A shared host's speed changes by up to half for seconds to tens of
seconds at a time as other work comes and goes, so the timings are
built to see through that. A ``tracing.Clock`` marks every recorded
frame and every base-scheduler call (``tracing.frame_clock``), cutting
each pass into short segments that do the same work in every pass.
Every ``PROBE_EVERY_S`` it also times warm runs of fixed reference
work (``reference_work``), and it divides each segment by the host's
slowdown around it: the nearby probes' fastest time over
``REFERENCE_S``. A timing is the sum of its segments, each at its
fastest over the run's passes: ``wall_s`` for the executor pass,
``frame_ms.p50``/``frame_ms.p95`` as percentiles over the stepped
pass's frames. The probes' slowdowns are printed above the result.

``setup_s`` is the median over fresh interpreters, spread over the
run, of the time to import ``repro``, decode the specs and build every
unit; ``peak_rss_mib`` is the peak memory of one more that also runs a
pass.

``--trace 1`` measures the per-layer metrics instead: after one stepped
pass it alternates untraced executor passes with traced ones
(``tracing.py`` wraps each layer's public entry points for the pass)
and reports every layer's self time, counters and share of the traced
pass. Counters must repeat exactly across the traced passes and match
the untraced records; a difference is nondeterminism.

Every pass's records are digested (``workloads.record_digest``) and
must agree with each other and, at seed 0, with the workload's
``reference_digest``. A unit run that raised or disagreed counts in
``failed`` and ``error_rate``. The last line of standard output is the
result object ``{"correct", "attempted", "failed", "metrics"}``; the
lines above it print every metric by name with its unit, the parity
checks, the digest and the environment fingerprint.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from time import perf_counter  # noqa: E402

from numpy import sort as numpy_sort  # noqa: E402
from numpy.random import default_rng as numpy_random  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")

#: Fresh interpreters timed for ``setup_s`` (after one untimed probe
#: that also measures ``peak_rss_mib`` and warms the bytecode cache).
SETUP_PROBES = 7

#: Passes of each kind a ``--trace 0`` run makes however long they take.
MIN_PASSES = 3

#: About the reference work's fastest time in seconds on the 2-vCPU
#: Intel Xeon host the bounds were set on (Python 3.11, numpy 2.4).
REFERENCE_S = 0.8e-3

#: Floats the reference work sorts.
REFERENCE_SIZE = 50_000

#: Seconds of program time between host probes inside a pass.
PROBE_EVERY_S = 0.2

#: Runs of the reference work in one probe, the first only warming up.
PROBE_REPEATS = 3


def reference_work(data):
    """Fixed work whose speed stands for the host's: a pure-Python loop
    and a numpy sort, the program's mix (contention slows the two by
    different amounts)."""
    total = 0
    for i in range(10_000):
        total += i * i % 7
    numpy_sort(data)
    return total


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


# ----------------------------------------------------------------------
# Environment fingerprint
# ----------------------------------------------------------------------


def _git_commit():
    """HEAD's commit when run from a git clone, else None."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(git, head[5:])) as handle:
                head = handle.read().strip()
    except OSError:
        return None
    return head


def _source_digest() -> str:
    """sha256 over ``src/``'s Python files: names the code without git."""
    digest = hashlib.sha256()
    for folder, dirs, files in sorted(os.walk(SRC)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def fingerprint(workload) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_present": importlib.util.find_spec("numba") is not None,
        "lanes": workload.lanes(),
        "commit": _git_commit(),
        "src_sha256": _source_digest(),
    }


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------


def probe(workload, with_pass: bool):
    """One fresh interpreter: seconds to every unit built, peak RSS."""
    request = json.dumps({
        "specs": workload.spec_data,
        "workload": workload.name,
        "seed": workload.seed,
        "work_dir": workload.work_dir + "-probe",
        "pass": with_pass,
    })
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    start = perf_counter()
    # Leaving the with block closes the pipes and waits for the child.
    with subprocess.Popen(
        [sys.executable, os.path.join(HERE, "setup_probe.py")],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT, env=env,
        text=True,
    ) as child:
        child.stdin.write(request)
        child.stdin.close()
        first = child.stdout.readline()
        setup_s = perf_counter() - start
        rest = child.stdout.read()
    if child.returncode != 0 or first.strip() != "built":
        raise RuntimeError(f"set-up probe exited with {child.returncode}")
    if not with_pass:
        return setup_s, None
    return setup_s, json.loads(rest.splitlines()[-1])["peak_rss_mib"]


class Run:
    """The passes of one benchmark run and their outcomes."""

    def __init__(self, workload, reference):
        self.workload = workload
        self.reference = reference
        self.units = len(workload.specs)
        self.outcomes = []  # (kind, unit digests or None when it raised)
        self.wall_s = {"executor": [], "stepped": [], "traced": []}
        self.scaled = False  # whether passes probe the host's speed
        self.frame_s = []  # per stepped pass, every frame's segments
        self.segments = []  # per executor pass, its segments
        self.probe_s = []  # every host probe's seconds
        self.reference_data = numpy_random(0).random(REFERENCE_SIZE)
        self.traces = []  # (tracer, wall seconds, records) per traced pass
        self.records = None

    def _timed(self, kind, body):
        start = perf_counter()
        try:
            records = body()
        except Exception:
            traceback.print_exc()
            self.outcomes.append((kind, None))
            return perf_counter() - start, None
        seconds = perf_counter() - start
        from workloads import record_digest

        self.outcomes.append((kind, [record_digest(r) for r in records]))
        self.wall_s[kind].append(seconds)
        if self.records is None and kind == "executor":
            self.records = records
        return seconds, records

    def clock(self):
        """A pass's clock: probing the host in ``--trace 0`` runs."""
        from tracing import Clock

        if not self.scaled:
            return Clock()
        return Clock(self.host_probe, REFERENCE_S, PROBE_EVERY_S)

    def executor_pass(self):
        from tracing import frame_clock

        clock = self.clock()

        def body():
            with frame_clock(clock):
                return self.workload.run_pass()

        seconds, records = self._timed("executor", body)
        if records is not None:
            self.segments.append(clock.segments())
            self.probe_s.extend(clock.probe_s)
        return seconds

    def stepped_pass(self):
        from tracing import frame_clock

        clock, frames = self.clock(), []

        def body():
            with frame_clock(clock):
                return self.workload.stepped_pass(clock, frames)

        seconds, records = self._timed("stepped", body)
        if records is not None:
            self.frame_s.append([clock.segments(*frame) for frame in frames])
            self.probe_s.extend(clock.probe_s)
        return seconds

    def host_probe(self):
        """The fastest of a few warm runs of the reference work: the
        first run brings its data back into the caches the pass used."""
        best = float("inf")
        for _ in range(PROBE_REPEATS):
            start = perf_counter()
            reference_work(self.reference_data)
            best = min(best, perf_counter() - start)
        return best

    def ragged(self):
        """True when passes of one kind cut their work into different
        numbers of segments, which deterministic runs never do."""
        return len({len(s) for s in self.segments}) > 1 or any(
            len({len(segments) for segments in frame}) > 1
            for frame in zip(*self.frame_s)
        ) or len({len(frames) for frames in self.frame_s}) > 1

    def traced_pass(self):
        from tracing import traced

        with traced() as tracer:
            seconds, records = self._timed("traced", self.workload.run_pass)
        if records is not None:
            self.traces.append((tracer, seconds, records))
        return seconds

    def alternate(self, seconds, passes, least):
        """Run ``passes`` in turn until ``seconds`` have gone by and each
        has run at least ``least`` times."""
        start = perf_counter()
        rounds = 0
        while rounds < least or perf_counter() - start < seconds:
            for run_pass in passes:
                run_pass()
            rounds += 1

    # -- correctness ---------------------------------------------------

    def check(self):
        """(failed unit runs, attempted unit runs, digest, notes)."""
        from workloads import workload_digest

        baseline = next(
            (digests for _, digests in self.outcomes if digests), None
        )
        digest = workload_digest(baseline) if baseline else None
        notes = []
        reference_ok = True
        if self.workload.seed == 0:
            reference_ok = digest == self.reference
            notes.append(
                "digest matches the seed-0 reference" if reference_ok
                else f"digest differs from the seed-0 reference {self.reference}"
            )
        else:
            notes.append(
                f"seed {self.workload.seed}: no stored reference; compare "
                "this digest across commits"
            )
        failed = 0
        for _, digests in self.outcomes:
            if digests is None or not reference_ok:
                failed += self.units
            else:
                failed += sum(a != b for a, b in zip(digests, baseline))
        attempted = self.units * len(self.outcomes)
        return failed, attempted, digest, notes

    def parity(self):
        """The named in-benchmark parity checks, as (label, passed)."""
        kinds = {}
        for kind, digests in self.outcomes:
            kinds.setdefault(kind, []).append(digests)
        config = self.workload.config

        def agree(a, b):
            runs = kinds.get(a, []) + kinds.get(b, [])
            return bool(runs) and all(d is not None and d == runs[0] for d in runs)

        checks = []
        if config["executor"] == "batched":
            checks.append(("batched == SerialExecutor (stepped)",
                           agree("executor", "stepped")))
        elif config["pass"] == "resume":
            checks.append(("resumed == uninterrupted (stepped)",
                           agree("executor", "stepped")))
        else:
            checks.append(("executor == stepped", agree("executor", "stepped")))
        if "traced" in kinds:
            checks.append(("traced == untraced", agree("executor", "traced")))
        return checks


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


def _median(values):
    return statistics.median(values) if values else 0.0


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def fastest(passes):
    """Sum over aligned segments of each one's fastest time in ``passes``."""
    return sum(min(times) for times in zip(*passes))


def end_to_end(run, setup_s, peak_rss_mib):
    wall = fastest(run.segments)
    slots = run.workload.simulated_slots(run.records) if run.records else 0
    frame_ms = [
        1e3 * fastest(frame) for frame in zip(*run.frame_s)
    ]
    p95 = (
        statistics.quantiles(frame_ms, n=20, method="inclusive")[18]
        if len(frame_ms) > 1 else _median(frame_ms)
    )
    return {
        "wall_s": (wall, "s"),
        "sim_slots_per_s": (_ratio(slots, wall), "1/s"),
        "setup_s": (_median(setup_s), "s"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
        "frame_ms.p50": (_median(frame_ms), "ms"),
        "frame_ms.p95": (p95, "ms"),
    }


#: Counters reported as per-layer metrics. They and the ones only used
#: for ratios must repeat exactly across traced passes.
REPORTED_COUNTS = (
    "staticsched.calls", "staticsched.slots", "staticsched.batchloop.groups",
    "staticsched.batchloop.streams", "core.transform.subruns",
    "interference.calls", "injection.calls", "injection.packets",
    "core.protocol.phase1_calls", "core.protocol.cleanup_calls",
    "core.protocol.requests", "sim.metrics.compactions",
    "sim.checkpoint.saves", "sim.checkpoint.bytes", "scenario.builds",
)
EXACT_COUNTS = REPORTED_COUNTS + (
    "staticsched.requests", "staticsched.served", "core.protocol.frames",
    "core.protocol.served", "sim.checkpoint.loads",
)

#: Per-layer times as (metric, span, self time rather than total).
TIMES = (
    ("staticsched.run_s", "staticsched", False),
    ("staticsched.self_s", "staticsched", True),
    ("staticsched.batchloop.self_s", "staticsched.batchloop", True),
    ("core.transform.self_s", "core.transform", True),
    ("interference.s", "interference", True),
    ("injection.s", "injection", True),
    ("core.protocol.self_s", "core.protocol", True),
    ("sim.engine.self_s", "sim.engine", True),
    ("sim.metrics.s", "sim.metrics", True),
    ("sim.checkpoint.save_s", "sim.checkpoint.save", False),
    ("sim.checkpoint.load_s", "sim.checkpoint.load", False),
    ("scenario.build_s", "scenario.build", True),
    ("scenario.executor_s", "scenario.executor", True),
)


def _pass_values(tracer, wall):
    """One traced pass: layer times in seconds and shares of the pass."""
    from tracing import layer_self_ns

    layers = {k: ns / 1e9 for k, ns in layer_self_ns(tracer).items()}
    values = {
        metric: (tracer.self_ns if own else tracer.total_ns)[span] / 1e9
        for metric, span, own in TIMES
    }
    values.update({f"{k}.share": s / wall for k, s in layers.items()})
    values["trace.coverage"] = sum(layers.values()) / wall
    return values


def per_layer(run):
    """(metrics, nondeterminism found or "", top self-time layer)."""
    from tracing import LAYERS

    counts = [
        {k: tracer.counts[k] for k in EXACT_COUNTS}
        for tracer, _, _ in run.traces
    ]
    count = counts[0]
    drift = []
    changed = [k for k in EXACT_COUNTS if len({c[k] for c in counts}) > 1]
    if changed:
        drift.append("counters differ between traced passes: "
                     + ", ".join(changed))
    # The untraced records show how many packets were injected.
    injected = sum(record.injected for record in run.records)
    if count["injection.packets"] != injected:
        drift.append(f"traced injection.packets {count['injection.packets']}"
                     f" != {injected} injected in the untraced records")
    per_pass = [_pass_values(tracer, wall) for tracer, wall, _ in run.traces]
    metrics = {
        name: (_median([values[name] for values in per_pass]),
               "s" if name.endswith(("_s", ".s")) else "frac")
        for name in per_pass[0]
    }
    metrics.update({
        name: (count[name], "B" if name.endswith(".bytes") else "count")
        for name in REPORTED_COUNTS
    })
    metrics["staticsched.us_per_slot"] = (
        1e6 * _ratio(metrics["staticsched.run_s"][0],
                     count["staticsched.slots"]),
        "us",
    )
    metrics["staticsched.delivered_frac"] = (
        _ratio(count["staticsched.served"], count["staticsched.requests"]),
        "frac",
    )
    metrics["core.protocol.served_frac"] = (
        _ratio(count["core.protocol.served"], count["core.protocol.requests"]),
        "frac",
    )
    metrics["trace.overhead_frac"] = (
        _ratio(min(run.wall_s["traced"]), min(run.wall_s["executor"])) - 1.0,
        "frac",
    )
    top = max(LAYERS, key=lambda layer: metrics[f"{layer}.share"][0])
    return metrics, "; ".join(drift), top


# ----------------------------------------------------------------------
# Main
# ----------------------------------------------------------------------


def main():
    args = parse_args()
    if not os.path.isdir(os.path.join(SRC, "repro")):
        fail(f"no program to measure: {SRC}/repro is missing; run from a "
             "checkout of the repository")
    if args.seed < 0:
        fail("--seed must be >= 0")
    sys.path.insert(0, SRC)
    from workloads import Workload, load_config

    config = load_config()["workloads"]
    if args.workload not in config:
        fail(f"unknown workload {args.workload!r}; choose from "
             f"{', '.join(config)}")
    work_dir = os.path.join(WORK_ROOT, f"{os.getpid()}")
    workload = Workload(args.workload, config[args.workload], args.seed,
                        work_dir)
    run = Run(workload, config[args.workload]["reference_digest"])
    try:
        if args.trace:
            # The stepped pass is the serial reference and the warm-up.
            run.stepped_pass()
            run.alternate(args.seconds, (run.executor_pass, run.traced_pass),
                          2)
        else:
            peak_rss_mib = probe(workload, with_pass=True)[1]
            setup_s = []

            def setup_probe():
                if len(setup_s) < SETUP_PROBES:
                    setup_s.append(probe(workload, with_pass=False)[0])

            # Stepped first: it warms the code paths the executor runs.
            # The set-up probes are spread over the run, so that a slow
            # stretch of the host meets few of them.
            run.scaled = True
            run.alternate(args.seconds, (
                run.stepped_pass, setup_probe, run.executor_pass, setup_probe,
            ), MIN_PASSES)
            while len(setup_s) < SETUP_PROBES:
                setup_probe()
    finally:
        shutil.rmtree(WORK_ROOT, ignore_errors=True)

    failed, attempted, digest, notes = run.check()
    parity = run.parity()
    correct = failed == 0 and all(ok for _, ok in parity)
    if run.ragged():
        correct = False
        print("NONDETERMINISM: passes of one kind cut into different "
              "numbers of segments")
    print(f"workload {workload.name}  seed {workload.seed}  units "
          f"{run.units}  executor {workload.config['executor']}  passes "
          + ", ".join(f"{k} {len(v)}" for k, v in run.wall_s.items() if v))
    print("fingerprint " + json.dumps(fingerprint(workload), sort_keys=True))
    if args.trace:
        if not run.traces or not run.wall_s["executor"]:
            fail("no traced or untraced pass completed")
        metrics, drift, top = per_layer(run)
        if drift:
            correct = False
            print(f"NONDETERMINISM: {drift}")
        predicted = workload.config["largest_self_time"]
        print(f"largest self time: {top} (predicted {predicted}): "
              + ("as predicted" if top == predicted else "NOT as predicted"))
    else:
        metrics = end_to_end(run, setup_s, peak_rss_mib)
        frames = run.frame_s[0] if run.frame_s else []
        print(f"frames {len(frames)} x {len(run.frame_s)} stepped passes, "
              f"{sum(map(len, frames))} segments; executor segments "
              f"{len(run.segments[0]) if run.segments else 0} x "
              f"{len(run.segments)} passes")
        slowdowns = [t / REFERENCE_S for t in run.probe_s]
        print(f"host slowdown over {len(slowdowns)} probes: fastest "
              f"{min(slowdowns):.4f}, median "
              f"{statistics.median(slowdowns):.4f}, slowest "
              f"{max(slowdowns):.4f}; executor walls "
              + " ".join(f"{s:.4f}" for s in run.wall_s["executor"]))
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:>16.6g} {unit}")
    print(f"{'error_rate':32s} {failed / attempted:>16.6g} frac "
          f"({failed} of {attempted} unit runs)")
    for label, ok in parity:
        print(f"parity {label}: {'ok' if ok else 'FAILED'}")
    print(f"digest {digest}  ({'; '.join(notes)})")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))


if __name__ == "__main__":
    main()
