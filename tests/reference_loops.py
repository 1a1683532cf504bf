"""Literal per-slot transcriptions of vectorised library code, for tests.

The library defines each randomized static scheduler once, as a
:class:`~repro.staticsched.runloop.FusedPolicy` driven by
:func:`~repro.staticsched.runloop.run_fused`. This module keeps an
independent oracle for those policies: the plain per-slot loops they
replaced. Per-link state lives in arrays aligned with the busy set,
every slot draws one batched uniform per busy link (the same stream as
one scalar draw per link), success comes from one scalar
``successes()`` call per slot, and the history is a plain
``List[SlotRecord]``.

:func:`run_reference` takes the scheduler's configuration from its
``state_dict()``. Each slot reaches the model through a
:class:`~repro.interference.base.BatchSuccessEvaluator`, asked with the
transmitters' local indices. By default that is a
:class:`~repro.interference.base.ScalarBatchEvaluator`, one scalar
``successes()`` call per slot, so the oracle shares nothing with the
library's slot loop but :class:`~repro.staticsched.base.LinkQueues`.
``batch=True`` swaps in the model's cached
:meth:`~repro.interference.base.InterferenceModel.batch_evaluator`, the
evaluator the library's slot loop asks; that puts it through whole runs
with the policies held independent, but no longer checks it against
``successes()``.

:class:`MarkovReference` is the same kind of oracle for
:class:`~repro.injection.markov.MarkovModulatedInjection`'s range
sampler: the per-slot ON/OFF loop it replaced, with its own RNG
streams and its own packet store.
"""

from __future__ import annotations

import math
from typing import List, Optional

import numpy as np

from repro.injection.store import PacketStore
from repro.interference.base import ScalarBatchEvaluator
from repro.staticsched.base import LinkQueues, RunResult, SlotRecord
from repro.utils.rng import ensure_rng, spawn_rngs


class _Slots:
    """Busy set, queue depths, delivery and history for one run.

    :meth:`transmit` runs one slot from a transmit mask over
    :attr:`busy` and returns the success mask in pre-compaction
    indexing; when links drain it shrinks the busy set and leaves the
    keep mask in :attr:`last_keep` for the caller's per-link state.
    """

    def __init__(self, model, requests, record_history: bool, batch: bool):
        self.queues = LinkQueues(requests, model.num_links)
        self.busy = self.queues.busy_array()
        self.depths = self.queues.depths_for(self.busy)
        if batch:
            self.evaluator = model.batch_evaluator(self.busy)
        else:
            self.evaluator = ScalarBatchEvaluator(model, self.busy)
        self.delivered: List[int] = []
        self.history: Optional[List[SlotRecord]] = (
            [] if record_history else None
        )
        self.last_keep: Optional[np.ndarray] = None

    @property
    def size(self) -> int:
        return int(self.busy.size)

    @property
    def pending(self) -> int:
        return self.queues.pending

    def transmit(self, transmit: np.ndarray) -> np.ndarray:
        self.last_keep = None
        if not transmit.any():
            # Idle slot: the model is not consulted.
            if self.history is not None:
                self.history.append(SlotRecord((), ()))
            return np.zeros(self.size, dtype=bool)
        att_idx = transmit.nonzero()[0]
        success = np.zeros(self.size, dtype=bool)
        success[att_idx] = self.evaluator.successes_local(att_idx)
        if self.history is not None:
            self.history.append(SlotRecord(
                tuple(int(e) for e in self.busy[transmit]),
                tuple(int(e) for e in self.busy[success]),
            ))
        if success.any():
            # busy is sorted, so heads pop in ascending link order.
            self.delivered.extend(
                self.queues.pop_heads(self.busy[success]).tolist()
            )
            served = self.depths[success] - 1
            self.depths[success] = served
            if not served.all():
                keep = self.depths > 0
                self.busy = self.busy[keep]
                self.depths = self.depths[keep]
                self.evaluator.drop(keep)
                self.last_keep = keep
        return success


def _kv(cfg, model, requests, run: _Slots, gen, budget: int) -> int:
    p0 = cfg["initial_probability"]
    p_min = cfg["min_probability"]
    backoff = cfg["backoff"]
    recovery_slots = cfg["recovery_slots"]
    probability = np.full(run.size, p0)
    idle_streak = np.zeros(run.size, dtype=np.int64)
    slots = 0
    while slots < budget and run.pending:
        attempt = gen.random(run.size) < probability
        idle_streak += 1
        idle_streak[attempt] = 0
        success = run.transmit(attempt)
        probability[success] = p0
        # successes are a subset of attempts, so XOR == attempt & ~success
        rebuffed = attempt ^ success
        probability[rebuffed] = np.maximum(
            p_min, probability[rebuffed] * backoff
        )
        recovered = idle_streak >= recovery_slots
        probability[recovered] = np.minimum(
            p0, probability[recovered] * 2.0
        )
        idle_streak[recovered] = 0
        if run.last_keep is not None:
            probability = probability[run.last_keep]
            idle_streak = idle_streak[run.last_keep]
        slots += 1
    return slots


def _decay(cfg, model, requests, run: _Slots, gen, budget: int) -> int:
    measure = max(
        model.interference_measure(list(requests)), cfg["measure_floor"]
    )
    probability = min(1.0, 1.0 / (cfg["probability_scale"] * measure))
    # Each pending packet tosses its own coin; the link transmits if at
    # least one of them wants to.
    complement = 1.0 - probability
    slots = 0
    while slots < budget and run.pending:
        link_probability = 1.0 - complement ** run.depths
        run.transmit(gen.random(run.size) < link_probability)
        slots += 1
    return slots


def _fkv(cfg, model, requests, run: _Slots, gen, budget: int) -> int:
    probability_scale = cfg["probability_scale"]
    log_n = math.log(max(1, len(list(requests))) + 2)
    measure_estimate = max(model.interference_measure(list(requests)), 1.0)
    slots = 0
    phase = 0
    while slots < budget and run.pending:
        phase_measure = max(measure_estimate / 2.0**phase, 1.0)
        probability = min(0.25, 1.0 / (probability_scale * phase_measure))
        phase_length = max(
            1,
            math.ceil(
                cfg["phase_scale"]
                * probability_scale
                * max(phase_measure, log_n)
            ),
        )
        complement = 1.0 - probability
        for _ in range(phase_length):
            if slots >= budget or not run.pending:
                break
            link_probability = 1.0 - complement ** run.depths
            run.transmit(gen.random(run.size) < link_probability)
            slots += 1
        phase += 1
    return slots


def _hm(cfg, model, requests, run: _Slots, gen, budget: int) -> int:
    # I_busy(e) is the row sum of the busy-set submatrix, updated
    # incrementally as links drain.
    sub = model.weight_matrix()[np.ix_(run.busy, run.busy)]
    contention = sub.sum(axis=1)
    slots = 0
    while slots < budget and run.pending:
        p = np.minimum(1.0, cfg["chi"] / np.maximum(contention, 1.0))
        run.transmit(gen.random(run.size) < p)
        if run.last_keep is not None:
            keep = run.last_keep
            gone = ~keep
            contention = (
                contention[keep] - sub[np.ix_(keep, gone)].sum(axis=1)
            )
            sub = sub[np.ix_(keep, keep)]
        slots += 1
    return slots


def _single_hop(cfg, model, requests, run: _Slots, gen, budget: int) -> int:
    slots = 0
    while slots < budget and run.pending:
        run.transmit(np.ones(run.size, dtype=bool))
        slots += 1
    return slots


_LOOPS = {
    "kv": _kv,
    "decay": _decay,
    "fkv": _fkv,
    "hm": _hm,
    "single-hop": _single_hop,
}


def run_reference(
    scheduler,
    model,
    requests,
    budget: int,
    rng=None,
    record_history: bool = False,
    batch: bool = False,
) -> RunResult:
    """Run ``scheduler``'s slot rule through its per-slot transcription."""
    gen = ensure_rng(rng)
    run = _Slots(model, requests, record_history, batch)
    slots = _LOOPS[scheduler.name](
        scheduler.state_dict(), model, requests, run, gen, budget
    )
    return RunResult(
        delivered=run.delivered,
        remaining=run.queues.remaining_indices(),
        slots_used=slots,
        history=run.history,
    )


class MarkovReference:
    """Per-slot Markov ON/OFF injection, one scalar draw at a time.

    Built from the same arguments as
    :class:`~repro.injection.markov.MarkovModulatedInjection`, it splits
    ``rng`` the same way, allocates into its own :class:`PacketStore`
    and reports the same :meth:`state_dict`.
    """

    def __init__(self, generators, p_on_off, p_off_on, rng=None):
        self.generators = list(generators)
        self.p_on_off = float(p_on_off)
        self.p_off_on = float(p_off_on)
        streams = spawn_rngs(rng, len(self.generators) + 1)
        self.rngs = streams[:-1]
        pi_on = self.p_off_on / (self.p_on_off + self.p_off_on)
        self.states = [
            bool(streams[-1].random() < pi_on) for _ in self.generators
        ]
        self.next_slot = 0
        self.store = PacketStore()

    def indices_for_slot(self, slot: int) -> List[int]:
        assert slot == self.next_slot, (slot, self.next_slot)
        self.next_slot += 1
        indices: List[int] = []
        for index, (generator, rng) in enumerate(
            zip(self.generators, self.rngs)
        ):
            if self.states[index]:
                draw = rng.random()
                cumulative = 0.0
                for path, probability in generator.distribution:
                    cumulative += probability
                    if draw < cumulative:
                        indices.append(self.store.allocate(path, slot))
                        break
                if rng.random() < self.p_on_off:
                    self.states[index] = False
            else:
                if rng.random() < self.p_off_on:
                    self.states[index] = True
        return indices

    def indices_for_range(self, start_slot: int, end_slot: int) -> List[int]:
        out: List[int] = []
        for slot in range(start_slot, end_slot):
            out.extend(self.indices_for_slot(slot))
        return out

    def state_dict(self) -> dict:
        return {
            "rngs": [rng.bit_generator.state for rng in self.rngs],
            "states": list(self.states),
            "next_slot": self.next_slot,
        }
