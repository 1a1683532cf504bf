"""P4 — throughput of the fused run loop and its history overhead.

On the P1 headline workload (a 500-link dynamic-protocol stability run
under the ack-feedback KV scheduler, store-mode bookkeeping) this
records the fused ``numpy`` backend's slots/sec; the speedup over the
pre-kernel scalar loops is P1's job.

Workloads:

* ``stability-500link-kv`` — the headline: the same 500-link
  affectance instance and frame parameters as BENCH_p1, but with the
  struct-of-arrays packet store carrying the protocol side, so
  the slot loop dominates wall-clock. Timed min-of-3; the run outcome
  (delivered ids, packets in system, failure count) must be identical
  across repetitions before any number is reported.
* ``static-singlehop-500link`` — the all-transmit fast path (row-sum
  evaluator) in isolation.
* ``history-500link-kv`` — a 500-link KV backlog drain on the fused
  backend with and without ``record_history``: the lazy array-backed
  history must keep recording overhead at or below **10%** (it used
  to build two Python-int tuples per slot).

Results go to ``BENCH_p4.json`` (see ``benchmarks/run_perf.py``).
"""

from __future__ import annotations

import json
import resource
import time
from pathlib import Path

import numpy as np

from _harness import once, print_experiment
from bench_p1_slot_kernel import FRAME, NUM_LINKS, build_model

import repro
from repro.staticsched import KvScheduler, SingleHopScheduler
from repro.staticsched.runloop import use_backend

FRAMES = 8
TIMING_REPEATS = 3

#: Ceiling enforced by the pytest wrapper.
HISTORY_OVERHEAD_CEILING = 0.10


def _stability_run(frames: int):
    """One store-mode stability run; only the frame loop is timed."""
    model = build_model()
    routing = repro.build_routing_table(model.network)
    injection = repro.uniform_pair_injection(
        routing, model, FRAME.rate, num_generators=8, rng=1017
    )
    protocol = repro.DynamicProtocol(
        model, KvScheduler(), FRAME.rate, params=FRAME, rng=17,
        store=injection.store,
    )
    simulation = repro.FrameSimulation(protocol, injection)
    with use_backend("numpy"):
        start = time.perf_counter()
        simulation.run(frames)
        seconds = time.perf_counter() - start
    outcome = {
        "delivered": len(protocol.delivered),
        "in_system": protocol.packets_in_system,
        "failures": protocol.potential.total_failures,
    }
    return outcome, seconds


def _static_singlehop():
    model = build_model(reach=40, base=0.5, exponent=1.5)
    model.weight_matrix()
    rng = np.random.default_rng(23)
    requests = list(rng.integers(0, NUM_LINKS, size=4000))
    with use_backend("numpy"):
        start = time.perf_counter()
        result = SingleHopScheduler().run(
            model, requests, 1200, rng=np.random.default_rng(29)
        )
        seconds = time.perf_counter() - start
    outcome = {
        "slots": result.slots_used,
        "delivered": len(result.delivered),
    }
    return outcome, seconds


def _history_drain(record_history: bool):
    model = build_model()
    model.weight_matrix()
    rng = np.random.default_rng(23)
    requests = list(rng.integers(0, NUM_LINKS, size=13000))
    with use_backend("numpy"):
        start = time.perf_counter()
        result = KvScheduler().run(
            model, requests, 900, rng=np.random.default_rng(29),
            record_history=record_history,
        )
        seconds = time.perf_counter() - start
    outcome = {
        "slots": result.slots_used,
        "delivered": len(result.delivered),
    }
    return outcome, seconds, result


def _min_of(runner):
    """Min-of-N wall-clock (the standard noise-robust estimator); the
    outcome must agree across repetitions, which is asserted."""
    seconds = float("inf")
    reference = None
    for _ in range(TIMING_REPEATS):
        outcome, elapsed = runner()
        if reference is None:
            reference = outcome
        assert outcome == reference, "outcome diverged across repetitions"
        seconds = min(seconds, elapsed)
    return seconds, reference


def run_experiment(frames: int = FRAMES, out_path=None, tags=None):
    slots = frames * FRAME.frame_length
    headline_secs, headline_outcome = _min_of(
        lambda: _stability_run(frames)
    )
    singlehop_secs, singlehop_outcome = _min_of(_static_singlehop)

    # History overhead on the fused backend. The effect being bounded
    # is small (~1 µs/slot), so it gets more interleaved repetitions
    # than the throughput workloads — container wall-clock jitter on a
    # ~0.5 s drain otherwise drowns a few-percent measurement.
    hist_secs = {"plain": float("inf"), "history": float("inf")}
    hist_result = None
    for _ in range(TIMING_REPEATS + 2):
        _, plain_s, _ = _history_drain(False)
        _, hist_s, hist_result = _history_drain(True)
        hist_secs["plain"] = min(hist_secs["plain"], plain_s)
        hist_secs["history"] = min(hist_secs["history"], hist_s)
    history_overhead = hist_secs["history"] / hist_secs["plain"] - 1.0
    # The lazy history must actually contain the run.
    assert len(hist_result.history) == hist_result.slots_used

    payload = {
        "benchmark": "p4_runloop",
        "created_unix": time.time(),
        "links": NUM_LINKS,
        "frames": frames,
        "backend": "numpy",
        "workloads": [
            {
                "name": "stability-500link-kv",
                "slots": slots,
                **headline_outcome,
                "seconds": headline_secs,
                "slots_per_sec": slots / headline_secs,
            },
            {
                "name": "static-singlehop-500link",
                **singlehop_outcome,
                "seconds": singlehop_secs,
                "slots_per_sec": singlehop_outcome["slots"] / singlehop_secs,
            },
            {
                "name": "history-500link-kv",
                "slots": hist_result.slots_used,
                "seconds": hist_secs,
                "history_overhead": history_overhead,
            },
        ],
        "history_overhead": history_overhead,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tags:
        payload.update(tags)
    if out_path is None:
        out_path = Path(__file__).resolve().parents[1] / "BENCH_p4.json"
    Path(out_path).write_text(json.dumps(payload, indent=2) + "\n")

    rows = [
        [workload["name"], workload["slots"],
         f"{workload['slots_per_sec']:,.0f}", "-"]
        for workload in payload["workloads"][:2]
    ]
    rows.append([
        "history-500link-kv",
        hist_result.slots_used,
        "-",
        f"{history_overhead:+.1%}",
    ])
    print_experiment(
        "P4",
        "Fused run loop: chunked coins, sparse bookkeeping and lazy "
        "history on the numpy backend",
        ["workload", "slots", "numpy slots/s", "history overhead"],
        rows,
    )
    return payload


def test_p4_runloop(benchmark):
    payload = once(benchmark, run_experiment)
    assert payload["history_overhead"] <= HISTORY_OVERHEAD_CEILING, (
        "history recording overhead above the 10% ceiling: "
        f"{payload['history_overhead']:.1%}"
    )
