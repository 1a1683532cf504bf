"""P1 — the vectorized slot kernel vs the scalar slot loop.

The perf tentpole of the kernel PR: on a 500-link instance the batched
slot loop (numpy per-link state, batched Bernoulli draws, cached
active-set submatrices in the models) must clear at least 3x the
slots/sec of the scalar path it replaced — per-link Python dict
iteration with one ``rng.random()`` per busy link and a fresh
``successes()`` evaluation per slot.

The scalar baselines below are faithful copies of the pre-kernel
scheduler loops (``LegacyKv``/``LegacyDecay``/``LegacySingleHop``).
They were engineered to consume the *same RNG stream* as the
vectorized schedulers (batched draws read the generator exactly like
repeated scalar draws), so both sides execute the identical schedule
and the comparison is pure implementation overhead — the benchmark
asserts this by comparing outcomes. A third mode, the same run loop
pinned to scalar ``successes()`` via ``scalar_reference()``, isolates
how much of the win comes from batch success evaluation vs batched
draws.

Workloads:

* ``stability-500link-kv`` — the headline: a dynamic-protocol
  stability run (two-phase frames, clean-up lottery, stochastic
  injection) over a 500-link affectance-threshold instance with the
  ack-feedback KV scheduler.
* ``static-decay-500link`` / ``static-singlehop-500link`` — static
  backlog drains isolating the kernel itself.

Results go to ``BENCH_p1.json`` (see ``benchmarks/run_perf.py``) so
later PRs have a trajectory to compare against.
"""

from __future__ import annotations

import json
import resource
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from _harness import once, print_experiment

import repro
from repro.core.frames import FrameParameters
from repro.interference.base import InterferenceModel
from repro.interference.matrix_model import AffectanceThresholdModel
from repro.network.topology import mac_network
from repro.staticsched import (
    DecayScheduler,
    KvScheduler,
    SingleHopScheduler,
    scalar_reference,
    use_backend,
)
from repro.staticsched.base import (
    LinkQueues,
    RunResult,
    SlotRecord,
    StaticAlgorithm,
)
from repro.utils.rng import RngLike, ensure_rng

NUM_LINKS = 500
FRAMES = 8
FRAME = FrameParameters(
    frame_length=1000,
    phase1_budget=900,
    cleanup_budget=80,
    measure_budget=30.0,
    epsilon=0.5,
    rate=0.2,
    f_m=1.0,
    m=NUM_LINKS,
)


# ----------------------------------------------------------------------
# Scalar baselines: the pre-kernel slot loops, preserved verbatim
# ----------------------------------------------------------------------


class LegacyKv(KvScheduler):
    """The seed KvScheduler.run: per-link dict state, one draw per link."""

    name = "kv-scalar-loop"

    def run(
        self,
        model: InterferenceModel,
        requests: Sequence[int],
        budget: int,
        rng: RngLike = None,
        record_history: bool = False,
    ) -> RunResult:
        gen = ensure_rng(rng)
        queues = LinkQueues(requests, model.num_links)
        delivered: List[int] = []
        history: Optional[List[SlotRecord]] = [] if record_history else None
        probability: Dict[int, float] = {
            link: self._p0 for link in queues.busy_links()
        }
        idle_streak: Dict[int, int] = {link: 0 for link in probability}
        slots = 0
        while slots < budget and queues.pending:
            transmitting = []
            for link_id in queues.busy_links():
                if gen.random() < probability[link_id]:
                    transmitting.append(link_id)
                    idle_streak[link_id] = 0
                else:
                    idle_streak[link_id] += 1
            successes = self._transmit(
                model, queues, transmitting, delivered, history
            )
            for link_id in transmitting:
                if link_id in successes:
                    probability[link_id] = self._p0
                else:
                    probability[link_id] = max(
                        self._p_min, probability[link_id] * self._backoff
                    )
            for link_id, streak in idle_streak.items():
                if (
                    streak >= self._recovery_slots
                    and queues.queue_length(link_id)
                ):
                    probability[link_id] = min(
                        self._p0, probability[link_id] * 2.0
                    )
                    idle_streak[link_id] = 0
            slots += 1
        return self._finalise(queues, delivered, slots, history)


class LegacyDecay(DecayScheduler):
    """The seed DecayScheduler.run: per-slot rebuilt link lists."""

    name = "decay-scalar-loop"

    def run(
        self,
        model: InterferenceModel,
        requests: Sequence[int],
        budget: int,
        rng: RngLike = None,
        record_history: bool = False,
    ) -> RunResult:
        gen = ensure_rng(rng)
        queues = LinkQueues(requests, model.num_links)
        delivered: List[int] = []
        history: Optional[List[SlotRecord]] = [] if record_history else None
        measure = max(
            model.interference_measure(list(requests)), self._measure_floor
        )
        probability = min(1.0, 1.0 / (self._probability_scale * measure))
        busy = np.asarray(queues.busy_links(), dtype=int)
        counts = np.asarray(
            [queues.queue_length(int(e)) for e in busy], dtype=float
        )
        position = {int(e): k for k, e in enumerate(busy)}
        slots = 0
        while slots < budget and queues.pending:
            link_probability = 1.0 - (1.0 - probability) ** counts
            wants = gen.random(busy.shape[0]) < link_probability
            transmitting = [int(e) for e in busy[wants]]
            successes = self._transmit(
                model, queues, transmitting, delivered, history
            )
            if successes:
                for link_id in successes:
                    counts[position[link_id]] -= 1.0
                if (counts == 0).any():
                    keep = counts > 0
                    busy = busy[keep]
                    counts = counts[keep]
                    position = {int(e): k for k, e in enumerate(busy)}
            slots += 1
        return self._finalise(queues, delivered, slots, history)


class LegacySingleHop(SingleHopScheduler):
    """The seed SingleHopScheduler.run: scalar successes every slot."""

    name = "single-hop-scalar-loop"

    def run(
        self,
        model: InterferenceModel,
        requests: Sequence[int],
        budget: int,
        rng: RngLike = None,
        record_history: bool = False,
    ) -> RunResult:
        queues = LinkQueues(requests, model.num_links)
        delivered: List[int] = []
        history: Optional[List[SlotRecord]] = [] if record_history else None
        slots = 0
        while slots < budget and queues.pending:
            transmitting = queues.busy_links()
            self._transmit(model, queues, transmitting, delivered, history)
            slots += 1
        return self._finalise(queues, delivered, slots, history)


# ----------------------------------------------------------------------
# The 500-link workloads
# ----------------------------------------------------------------------


def banded_affectance_matrix(
    m: int, reach: int, base: float, exponent: float
):
    """A synthetic SINR-like impact matrix: geometric decay with link
    distance, unit diagonal."""
    idx = np.arange(m)
    distance = np.abs(idx[:, None] - idx[None, :]).astype(float)
    matrix = base / (1.0 + distance) ** exponent
    matrix[distance > reach] = 0.0
    np.fill_diagonal(matrix, 1.0)
    return matrix


def build_model(
    reach: int = NUM_LINKS, base: float = 0.15, exponent: float = 0.3
) -> AffectanceThresholdModel:
    """The contention workload: slowly-decaying impact keeps a few
    hundred links competing all run — the paper's interesting regime
    (heavy standing backlog near the service ceiling) and the one the
    kernel targets. The defaults sustain ~4 successes per slot under
    the adaptive KV scheduler with 500 busy links."""
    return AffectanceThresholdModel(
        mac_network(NUM_LINKS),
        banded_affectance_matrix(NUM_LINKS, reach, base, exponent),
    )


def run_stability(scheduler, frames: int):
    """The 500-link stability run; only the frame loop is timed —
    instance construction is identical across modes and excluded.

    Pinned to the ``numpy`` backend: P1 measures the vectorized run
    loop against the pre-kernel scalar loops. A scalar-reference
    context still wins the tie.
    """
    model = build_model()
    protocol = repro.DynamicProtocol(
        model, scheduler, FRAME.rate, params=FRAME, rng=17
    )
    routing = repro.build_routing_table(model.network)
    injection = repro.uniform_pair_injection(
        routing, model, FRAME.rate, num_generators=8, rng=1017
    )
    simulation = repro.FrameSimulation(protocol, injection)
    with use_backend("numpy"):
        start = time.perf_counter()
        simulation.run(frames)
        seconds = time.perf_counter() - start
    return {
        "slots": frames * FRAME.frame_length,
        "delivered": len(protocol.delivered),
        "in_system": protocol.packets_in_system,
        "failures": protocol.potential.total_failures,
    }, seconds


def run_static(scheduler, budget: int, model_kwargs=None):
    """A static backlog drain on the 500-link model (run loop timed).

    Pinned to the ``numpy`` backend like :func:`run_stability`.
    """
    model = build_model(**(model_kwargs or {}))
    model.weight_matrix()  # build + validate W outside the timed region
    rng = np.random.default_rng(23)
    requests = list(rng.integers(0, NUM_LINKS, size=4000))
    with use_backend("numpy"):
        start = time.perf_counter()
        result = scheduler.run(
            model, requests, budget, rng=np.random.default_rng(29)
        )
        seconds = time.perf_counter() - start
    return {
        "slots": result.slots_used,
        "delivered": len(result.delivered),
    }, seconds


TIMING_REPEATS = 3


def _workload_row(name, runner, legacy_runner):
    """Time one workload three ways; verify all executed one schedule.

    Repetitions are interleaved across the three modes and the minimum
    wall-clock per mode is kept: the min is the standard noise-robust
    estimator (scheduling and cache pressure only ever add time), and
    interleaving means a slow window in a shared container degrades
    every mode's samples instead of biasing one side of the ratio.
    Outcomes must be identical across modes and repetitions (fixed
    seeds), which is asserted.
    """
    vec_value = ref_value = legacy_value = None
    vec_seconds = ref_seconds = legacy_seconds = float("inf")
    for _ in range(TIMING_REPEATS):
        value, seconds = runner()
        assert vec_value in (None, value), "vectorized outcome diverged"
        vec_value, vec_seconds = value, min(vec_seconds, seconds)
        with scalar_reference():
            value, seconds = runner()
        assert ref_value in (None, value), "kernel-scalar outcome diverged"
        ref_value, ref_seconds = value, min(ref_seconds, seconds)
        value, seconds = legacy_runner()
        assert legacy_value in (None, value), "legacy outcome diverged"
        legacy_value, legacy_seconds = value, min(legacy_seconds, seconds)
    assert vec_value == ref_value == legacy_value, (
        f"{name}: paths diverged — vectorized {vec_value}, "
        f"kernel-scalar {ref_value}, legacy {legacy_value}"
    )
    slots = vec_value["slots"]
    return {
        "name": name,
        "links": NUM_LINKS,
        "slots": slots,
        "delivered": vec_value["delivered"],
        "seconds_vectorized": vec_seconds,
        "seconds_scalar": legacy_seconds,
        "seconds_kernel_scalar_successes": ref_seconds,
        "slots_per_sec_vectorized": slots / vec_seconds,
        "slots_per_sec_scalar": slots / legacy_seconds,
        "speedup": legacy_seconds / vec_seconds,
    }


def run_experiment(frames: int = FRAMES, out_path=None, tags=None):
    workloads = [
        _workload_row(
            "stability-500link-kv",
            lambda: run_stability(KvScheduler(), frames),
            lambda: run_stability(LegacyKv(), frames),
        ),
        _workload_row(
            "static-decay-500link",
            lambda: run_static(DecayScheduler(), 1200),
            lambda: run_static(LegacyDecay(), 1200),
        ),
        _workload_row(
            # Steeper decay so the all-transmit slots partially succeed
            # (the flat-decay default would deadlock a non-adaptive
            # broadcast) — this row exercises the row-sum fast path.
            "static-singlehop-500link",
            lambda: run_static(
                SingleHopScheduler(),
                1200,
                dict(reach=40, base=0.5, exponent=1.5),
            ),
            lambda: run_static(
                LegacySingleHop(),
                1200,
                dict(reach=40, base=0.5, exponent=1.5),
            ),
        ),
    ]
    headline = workloads[0]
    payload = {
        "benchmark": "p1_slot_kernel",
        "created_unix": time.time(),
        "links": NUM_LINKS,
        "frames": frames,
        "workloads": workloads,
        "headline_speedup": headline["speedup"],
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tags:
        payload.update(tags)
    if out_path is None:
        out_path = Path(__file__).resolve().parents[1] / "BENCH_p1.json"
    Path(out_path).write_text(json.dumps(payload, indent=2) + "\n")

    rows = [
        [
            w["name"],
            w["slots"],
            f"{w['slots_per_sec_scalar']:,.0f}",
            f"{w['slots_per_sec_vectorized']:,.0f}",
            f"{w['speedup']:.1f}x",
        ]
        for w in workloads
    ]
    print_experiment(
        "P1",
        "Vectorized slot kernel: batched draws + cached submatrices vs "
        "the per-link scalar slot loop on 500 links",
        ["workload", "slots", "scalar slots/s", "vectorized slots/s",
         "speedup"],
        rows,
    )
    return payload


def test_p1_slot_kernel(benchmark):
    payload = once(benchmark, run_experiment)
    assert payload["headline_speedup"] >= 3.0, (
        "kernel speedup below the 3x acceptance floor: "
        f"{payload['headline_speedup']:.2f}x"
    )
