"""Transform rounds share one coin buffer; one-attempter slots.

Pins the contracts that let a Section-3 transform sub-run start and
step cheaply without changing any result:

* a transform over a fused base hands each sparsification round (and
  the mop-up runs) one :class:`ChunkedUniforms`, finalized once per
  round; runs replay the numpy engine, the scalar reference and a base
  whose ``run`` is the per-slot transcription
  (``reference_loops.run_reference``) — delivered, remaining, slots,
  history and the generator's end state — through budget cuts inside a
  round, rounds with empty classes and the mop-up runs, serially and
  batched; a base without a fused policy still gets the generator;
* a decay task that borrows a round buffer certifies the leftover coins
  it starts with and every refill it triggers, and never switches to
  the exact measure for a second batch alone;
* the slot body's one-attempter branch (pop, depth and drain test on
  Python ints) replays the per-slot transcription for every registered
  model and every fused scheduler, at a draining and a non-draining
  depth.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

import repro.scenario.components  # noqa: F401  (registers the models)
from repro.core.transform import TransformedAlgorithm
from repro.network.topology import random_sinr_network
from repro.scenario import registry
from repro.staticsched import (
    DecayScheduler,
    KvScheduler,
    MaxWeightScheduler,
)
import repro.staticsched.runloop as runloop
from repro.staticsched.base import StaticAlgorithm
from repro.staticsched.batchloop import run_batched_streams
from repro.staticsched.runloop import (
    ChunkedUniforms,
    DecayPolicy,
    FusedScheduler,
    FusedTask,
    scalar_reference,
    use_backend,
)
from reference_loops import run_reference
from test_kernel_parity import _sinr_model
from test_runloop import _affectance_model, _outcome


def _drive(steps, calls):
    """``drive_steps`` that also records each call and its result."""
    try:
        call = next(steps)
        while True:
            result = call.execute()
            calls.append((call, result))
            call = steps.send(result)
    except StopIteration as stop:
        return stop.value


class _ReferenceBase(StaticAlgorithm):
    """A base without a fused policy: the scheduler's per-slot
    transcription, on the raw generator."""

    def __init__(self, scheduler):
        self._scheduler = scheduler
        self.name = scheduler.name

    def budget_for(self, measure, n):
        return self._scheduler.budget_for(measure, n)

    def state_dict(self):
        return self._scheduler.state_dict()

    def run(self, model, requests, budget, rng=None, record_history=False):
        assert isinstance(rng, np.random.Generator)
        return run_reference(self._scheduler, model, requests, budget, rng,
                             record_history)


# ----------------------------------------------------------------------
# One coin buffer per round
# ----------------------------------------------------------------------

BASES = {
    # Short class budgets leave work for the mop-up runs.
    "decay": lambda: DecayScheduler(budget_scale=0.25),
    "kv": lambda: KvScheduler(budget_scale=0.5),
}
MODELS = {
    "affectance": lambda: _affectance_model(m=12, seed=5),
    "sinr": _sinr_model,
}
REQUESTS = 240
CHI_SCALE = 0.02


def _transform(base, model):
    return TransformedAlgorithm(base, m=model.num_links,
                                chi_scale=CHI_SCALE)


def _requests(model, seed):
    return [int(e) for e in np.random.default_rng(seed).integers(
        0, model.num_links, size=REQUESTS)]


def _groups(calls):
    """Consecutive calls sharing one coin source: the rounds, then the
    mop-up runs."""
    groups = []
    for call, result in calls:
        if groups and groups[-1][0][0].rng is call.rng:
            groups[-1].append((call, result))
        else:
            groups.append([(call, result)])
    return groups


def _full_and_cut(base_name, model, requests, seed):
    """The uncut run's calls, and a budget that cuts it inside its
    first round (half of that round's classes done, then 3 slots)."""
    calls = []
    gen = np.random.default_rng(seed)
    with use_backend("numpy"):
        _drive(_transform(BASES[base_name](), model).run_steps(
            model, requests, 10**9, gen, True), calls)
    first = _groups(calls)[0]
    done = sum(result.slots_used for _, result in first[:len(first) // 2])
    return calls, done + 3


@pytest.mark.parametrize("cut", [False, True], ids=["whole", "cut"])
@pytest.mark.parametrize("model_name", sorted(MODELS))
@pytest.mark.parametrize("base_name", sorted(BASES))
def test_round_buffer_replays_the_per_slot_reference(
    base_name, model_name, cut
):
    model = MODELS[model_name]()
    requests = _requests(model, 1)
    full, cut_budget = _full_and_cut(base_name, model, requests, 2)
    budget = cut_budget if cut else 10**9

    def outcome(base, run=_drive, calls=None):
        gen = np.random.default_rng(2)
        steps = _transform(base, model).run_steps(
            model, requests, budget, gen, True)
        if run is _drive:
            result = _drive(steps, calls if calls is not None else [])
        else:
            result = run([steps])[0]
        return _outcome(result, gen)

    calls = []
    with use_backend("numpy"):
        fused = outcome(BASES[base_name](), calls=calls)
        batched = outcome(BASES[base_name](), run=run_batched_streams)
    with scalar_reference():
        scalar = outcome(BASES[base_name]())
    reference_calls = []
    reference = outcome(_ReferenceBase(BASES[base_name]()),
                        calls=reference_calls)
    assert fused == batched == scalar == reference

    # Each fused sub-run read a round's buffer, never the generator;
    # the per-slot base read the generator.
    assert all(isinstance(call.rng, ChunkedUniforms) for call, _ in calls)
    assert all(isinstance(call.rng, np.random.Generator)
               for call, _ in reference_calls)
    groups = _groups(calls)
    full_groups = _groups(full)
    rounds = _transform(BASES[base_name](), model)._rounds(
        max(model.interference_measure(requests), 1.0), len(requests))
    if cut:
        # Stopped inside the first round, at the budget.
        assert fused[2] == budget
        assert len(groups) == 1
        assert len(groups[0]) < len(full_groups[0])
        assert fused[1]
    else:
        # Several rounds, then the mop-up runs on their own buffer.
        assert rounds >= 2
        assert len(full_groups) == rounds + 1
        assert len(full_groups[-1]) >= 1
        # The first round left some delay classes empty.
        chi = _transform(BASES[base_name](), model).chi
        measure = max(model.interference_measure(requests), 1.0)
        assert len(full_groups[0]) < int(np.ceil(measure / chi))


def test_non_fused_base_receives_the_generator():
    model = _affectance_model(m=12, seed=5)
    requests = _requests(model, 4)
    gen = np.random.default_rng(6)
    calls = []
    _drive(_transform(MaxWeightScheduler(), model).run_steps(
        model, requests, 10**9, gen, False), calls)
    assert calls
    assert all(call.rng is gen for call, _ in calls)


# ----------------------------------------------------------------------
# The guard on a borrowed buffer
# ----------------------------------------------------------------------


def _traced_guard(monkeypatch):
    calls = []
    guard = DecayPolicy.guard

    def traced(self, coins, depths):
        fell_back = guard(self, coins, depths)
        calls.append((coins.size, fell_back))
        return fell_back

    monkeypatch.setattr(DecayPolicy, "guard", traced)
    return calls


def _borrowed_pair(model, first, second, budget, seed):
    """Run ``first`` on a fresh round buffer, then bind ``second`` on
    the buffer it left; returns the buffer and the bound second task."""
    coins = ChunkedUniforms(np.random.default_rng(seed))
    FusedTask(DecayScheduler().fused_policy(), model, first, budget,
              coins).run()
    task = FusedTask(DecayScheduler().fused_policy(), model, second,
                     budget, coins, record_history=True)
    return coins, task


def _finished(coins, task):
    result = task.run()
    coins.finalize()
    return _outcome(result, coins._gen)


def test_planted_coin_in_a_later_class_leftover_forces_exact(monkeypatch):
    """A coin inside the band in the leftover a class starts with makes
    it rebind exactly before the coin is compared, and the run still
    replays the scalar reference on the same buffer."""
    model = _affectance_model(m=12, seed=5)
    first, second = [0, 3, 3, 7], [1, 4, 9]
    coins, task = _borrowed_pair(model, first, second, 400, seed=3)
    policy = task.policy
    assert not policy.certified
    # The leftover serves the class's first slot at least.
    assert coins._cursor + task.busy.size <= coins._buf.size
    coins._buf[coins._cursor + 1] = (
        1.0 - policy.complement + 0.5 * runloop.GUARD_BAND
    )
    reference_coins = copy.deepcopy(coins)
    calls = _traced_guard(monkeypatch)
    got = _finished(coins, task)
    assert calls[0] == (reference_coins._buf.size
                        - reference_coins._cursor, True)
    assert len(calls) == 1 and policy.certified
    assert policy.measure == model.interference_measure(second)
    reference = FusedTask(DecayScheduler().fused_policy(), model, second,
                          400, reference_coins, record_history=True,
                          scalar=True)
    assert got == _finished(reference_coins, reference)


def test_borrowed_task_certifies_every_batch(monkeypatch):
    """Without a coin in a band, a borrowed task clears its leftover
    and each refill it triggers, and keeps its estimate however many
    batches it reads; an owned task still binds exactly at its second
    batch."""
    model = _affectance_model(m=12, seed=5)
    first = [0, 3]
    second = [int(e) for e in np.random.default_rng(7).integers(
        0, 12, size=60)]
    coins, task = _borrowed_pair(model, first, second, 5000, seed=8)
    assert coins._cursor + task.busy.size <= coins._buf.size
    reference_coins = copy.deepcopy(coins)
    calls = _traced_guard(monkeypatch)
    got = _finished(coins, task)
    assert len(calls) >= 3
    assert not any(fell_back for _, fell_back in calls)
    assert not task.policy.certified
    reference = FusedTask(DecayScheduler().fused_policy(), model, second,
                          5000, reference_coins, record_history=True,
                          scalar=True)
    assert got == _finished(reference_coins, reference)

    del calls[:]
    gen = np.random.default_rng(8)
    FusedTask(DecayScheduler().fused_policy(), model, second, 5000,
              gen).run()
    assert [fell_back for _, fell_back in calls] == [False, True]


# ----------------------------------------------------------------------
# One-attempter slots
# ----------------------------------------------------------------------

FUSED_SCHEDULERS = sorted(
    name for name in registry.names("scheduler")
    if issubclass(registry.resolve("scheduler", name), FusedScheduler)
)


def _one_link_run(model_name, scheduler_name, depth, reference):
    model = registry.resolve("model", model_name)(
        random_sinr_network(8, rng=3))
    scheduler = registry.resolve("scheduler", scheduler_name)()
    requests = [5] * depth
    gen = np.random.default_rng(depth + 40)
    if reference:
        result = run_reference(scheduler, model, requests, 300, gen, True)
    else:
        with use_backend("numpy"):
            result = scheduler.run(model, requests, 300, rng=gen,
                                   record_history=True)
    state = model.state_dict() if hasattr(model, "state_dict") else None
    return _outcome(result, gen) + (state,)


@pytest.mark.parametrize("depth", [1, 3], ids=["drains", "stays"])
@pytest.mark.parametrize("scheduler_name", FUSED_SCHEDULERS)
@pytest.mark.parametrize("model_name", registry.names("model"))
def test_one_busy_link_replays_the_per_slot_reference(
    model_name, scheduler_name, depth
):
    fused = _one_link_run(model_name, scheduler_name, depth, False)
    assert fused == _one_link_run(model_name, scheduler_name, depth, True)
    # Something was delivered: at depth 3 by a slot that left the link
    # busy.
    assert fused[0]
