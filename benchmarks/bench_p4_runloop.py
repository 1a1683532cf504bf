"""P4 — throughput of the fused run loop and its history overhead.

On the shared 500-link affectance instance (``_harness.build_model``)
this records the fused ``numpy`` backend's slots/sec.

Workloads:

* ``stability-500link-kv`` — the headline: a dynamic-protocol
  stability run under the ack-feedback KV scheduler, store-mode
  bookkeeping, so the slot loop dominates wall-clock. Only the frame
  loop is timed; the run outcome (delivered, packets in system,
  failure count) must be identical across repeats.
* ``static-singlehop-500link`` — the all-transmit fast path (row-sum
  evaluator) in isolation.
* ``history-500link-kv`` — a 500-link KV backlog drain with and
  without ``record_history``: the lazy array-backed history must keep
  recording overhead at or below **10%**, as the median over repeats
  of the paired ratio history/plain minus one (the two drains run back
  to back in each repeat). Each drain runs 14,400 slots (about 0.45 s
  on a 2-vCPU host), long enough that a host's scheduling noise
  averages out within a sample.

Results go to ``BENCH_p4.json`` (see ``benchmarks/run_perf.py``).
"""

from __future__ import annotations

import numpy as np

from _harness import (
    FRAME,
    NUM_LINKS,
    build_model,
    check_gates,
    gate,
    measure,
    median_ratio,
    once,
    print_experiment,
    protocol_outcome,
    stability_simulation,
    timings,
    write_payload,
)

from repro.staticsched import KvScheduler, SingleHopScheduler
from repro.staticsched.runloop import use_backend

FRAMES = 8
TIMING_REPEATS = 9
HISTORY_OVERHEAD_CEILING = 0.10
#: The history drain's backlog and slot budget. A 900-slot drain
#: (30–45 ms) left its samples' IQR at 28–45% of their median, so one
#: spread could carry the gate's paired overhead past its ceiling.
HISTORY_REQUESTS = 208_000
HISTORY_BUDGET = 14_400


def _stability_run(frames: int):
    def run(watch):
        simulation, protocol = stability_simulation()
        with use_backend("numpy"), watch:
            simulation.run(frames)
        return protocol_outcome(protocol)
    return run


def _drain(scheduler, size: int, budget: int, record_history=False,
           **model_kwargs):
    """A static backlog drain; only the scheduler's run is timed."""
    def run(watch):
        model = build_model(**model_kwargs)
        model.weight_matrix()
        rng = np.random.default_rng(23)
        requests = list(rng.integers(0, NUM_LINKS, size=size))
        with use_backend("numpy"), watch:
            result = scheduler.run(
                model, requests, budget, rng=np.random.default_rng(29),
                record_history=record_history,
            )
        if record_history:
            # The lazy history must actually contain the run.
            assert len(result.history) == result.slots_used
        return {"slots": result.slots_used,
                "delivered": len(result.delivered)}
    return run


def run_experiment(frames: int = FRAMES, repeats: int = TIMING_REPEATS,
                   out_path=None, tags=None):
    runs = measure({
        "stability-500link-kv": _stability_run(frames),
        "static-singlehop-500link": _drain(
            SingleHopScheduler(), 4000, 1200,
            reach=40, base=0.5, exponent=1.5,
        ),
        "history-plain": _drain(
            KvScheduler(), HISTORY_REQUESTS, HISTORY_BUDGET
        ),
        "history-recorded": _drain(
            KvScheduler(), HISTORY_REQUESTS, HISTORY_BUDGET,
            record_history=True,
        ),
    }, repeats)
    assert runs["history-plain"].outcome == (
        runs["history-recorded"].outcome
    ), "recording history changed the drain"

    slots = {
        "stability-500link-kv": frames * FRAME.frame_length,
        "static-singlehop-500link":
            runs["static-singlehop-500link"].outcome["slots"],
    }
    overhead = median_ratio(
        runs["history-recorded"].samples, runs["history-plain"].samples
    ) - 1.0
    payload = write_payload(out_path, {
        "benchmark": "p4_runloop",
        "links": NUM_LINKS,
        "frames": frames,
        "backend": "numpy",
        "workloads": {
            name: {
                "slots": slots[name],
                **runs[name].outcome,
                "slots_per_sec": slots[name] / runs[name].min,
            }
            for name in slots
        },
        "history_overhead": overhead,
        "timings": timings(runs),
        "gates": [gate(
            "history overhead", "median paired ratio - 1", overhead,
            HISTORY_OVERHEAD_CEILING, ceiling=True,
        )],
    }, tags)

    rows = [
        [name, row["slots"], f"{row['slots_per_sec']:,.0f}", "-"]
        for name, row in payload["workloads"].items()
    ]
    rows.append([
        "history-500link-kv",
        runs["history-plain"].outcome["slots"],
        "-",
        f"{overhead:+.1%}",
    ])
    print_experiment(
        "P4",
        "Fused run loop: chunked coins, sparse bookkeeping and lazy "
        "history on the numpy backend",
        ["workload", "slots", "numpy slots/s (min)", "history overhead"],
        rows,
    )
    return payload


def test_p4_runloop(benchmark, tmp_path):
    check_gates(once(
        benchmark,
        lambda: run_experiment(out_path=tmp_path / "BENCH_p4.json"),
    ))
