"""Run-loop backends vs literal per-slot transcriptions of each policy.

Four layers of verification:

1. **Full-run parity** — every scheduler is run per *lane* from the
   same seed on the same instance and compared with its per-slot
   transcription in ``reference_loops`` (one scalar ``successes()``
   call per slot). The lanes: the fused ``numpy`` backend (chunked
   draws, sparse bookkeeping, the model's batch evaluator), the ``scalar``
   backend inside ``scalar_reference()`` (the same fused loop asking
   scalar ``successes()``), and ``kernel`` — the transcription itself
   on the model's cached batch evaluator. All ``RunResult``\\ s —
   delivered order, remaining set, slots used, full slot history —
   and the generators' end states must be identical, which pins down
   that every lane consumes the exact same RNG stream (the
   chunk-drawn backends must rewind their overdraw to the per-slot
   generator position).
2. **Evaluator parity** — every model's batch evaluator must agree
   with ``successes`` slot by slot through random drains, including a
   hypothesis sweep over random weight matrices for the affectance
   criterion; the two ``successes_mask`` implementations (the base
   default and SINR's) must agree with ``successes`` too.
3. **Boundary parity** — crafted instances whose accumulated impact
   lands exactly on the affectance threshold, forcing the fused
   backend through its exact-summation guard paths (in
   ``test_runloop``).
4. **Whole-run parity at scale** — a KV dynamic-protocol stability
   run and decay / single-hop drains on a banded 500-link affectance
   instance, library vs a scheduler whose ``run`` is the
   transcription on scalar ``successes()``.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.frames import FrameParameters
from repro.core.protocol import DynamicProtocol
from repro.injection.stochastic import uniform_pair_injection
from repro.interference.builders import node_constraint_conflicts
from repro.interference.conflict import ConflictGraphModel
from repro.interference.jamming import JammedModel, PeriodicBurstPattern
from repro.interference.mac import MultipleAccessChannel
from repro.interference.matrix_model import (
    AffectanceThresholdModel,
    ExplicitMatrixModel,
)
from repro.interference.packet_routing import PacketRoutingModel
from repro.interference.unreliable import UnreliableModel
from repro.network.routing import build_routing_table
from repro.network.topology import (
    grid_network,
    mac_network,
    random_sinr_network,
)
from repro.sim.engine import FrameSimulation
from repro.sinr.fading import RayleighFadingSinrModel
from repro.sinr.weights import linear_power_model
from repro.staticsched import (
    DecayScheduler,
    FkvScheduler,
    HmScheduler,
    KvScheduler,
    MacBackoffScheduler,
    RoundRobinScheduler,
    SingleHopScheduler,
    scalar_reference,
    use_backend,
)
from reference_loops import run_reference


def _random_weights(m: int, seed: int, scale: float = 0.35) -> np.ndarray:
    rng = np.random.default_rng(seed)
    matrix = rng.random((m, m)) * scale
    np.fill_diagonal(matrix, 1.0)
    return matrix


def _affectance_model():
    net = mac_network(10)  # any 10-link network; W carries the structure
    return AffectanceThresholdModel(net, _random_weights(10, seed=11))


def _conflict_model():
    net = grid_network(3, 3)
    return ConflictGraphModel(net, node_constraint_conflicts(net))


def _sinr_model():
    net = random_sinr_network(12, rng=3)
    return linear_power_model(net, alpha=3.0, beta=1.0, noise=0.02)


def _unreliable_model():
    return UnreliableModel(_affectance_model(), 0.35, rng=77)


def _jammed_model():
    return JammedModel(
        _affectance_model(),
        PeriodicBurstPattern(period=5, burst=2),
        targets=[0, 2, 4, 6],
    )


def _explicit_model():
    """A model with NO vectorized overrides: exercises the base
    ``successes_mask`` and the default ``MaskBatchEvaluator``
    — the path every third-party model subclass gets for free."""
    weights = _random_weights(8, seed=19)

    def predicate(transmitting):
        # At most 2 simultaneous low-id links succeed (arbitrary but
        # deterministic semantics independent of W).
        chosen = sorted(transmitting)[:2]
        return set(chosen)

    return ExplicitMatrixModel(mac_network(8), weights, predicate)


MODEL_FACTORIES = {
    "packet-routing": lambda: PacketRoutingModel(grid_network(3, 3)),
    "mac": lambda: MultipleAccessChannel(mac_network(5)),
    "conflict": _conflict_model,
    "affectance": _affectance_model,
    "sinr": _sinr_model,
    "unreliable": _unreliable_model,
    "jammed": _jammed_model,
    "explicit-fallback": _explicit_model,
}

KERNEL_SCHEDULERS = {
    "kv": lambda: KvScheduler(),
    "decay": lambda: DecayScheduler(),
    "fkv": lambda: FkvScheduler(),
    "hm": lambda: HmScheduler(),
    "single-hop": lambda: SingleHopScheduler(),
}


def _run_once(scheduler_factory, model_factory, seed, record_history=True,
              runner=None):
    """One seeded run; fresh model + scheduler so stateful wrappers
    (loss RNG, jammer clock) replay identically in both modes.

    ``runner`` replaces ``scheduler.run`` (same signature plus the
    scheduler first); returns the result and the run's generator.
    """
    model = model_factory()
    scheduler = scheduler_factory()
    rng = np.random.default_rng(seed)
    requests = list(rng.integers(0, model.num_links, size=25))
    measure = model.interference_measure(requests)
    budget = min(scheduler.budget_for(measure, len(requests)), 400)
    gen = np.random.default_rng(seed + 1)
    if runner is None:
        result = scheduler.run(
            model, requests, budget, rng=gen, record_history=record_history
        )
    else:
        result = runner(
            scheduler, model, requests, budget, rng=gen,
            record_history=record_history,
        )
    return result, gen


def _run_lane(lane, scheduler_factory, model_factory, seed):
    if lane == "kernel":
        return _run_once(
            scheduler_factory, model_factory, seed,
            runner=functools.partial(run_reference, batch=True),
        )
    context = scalar_reference() if lane == "scalar" else use_backend(lane)
    with context:
        return _run_once(scheduler_factory, model_factory, seed)


@pytest.mark.parametrize("lane", ["kernel", "numpy", "scalar"])
@pytest.mark.parametrize("model_name", sorted(MODEL_FACTORIES))
@pytest.mark.parametrize("sched_name", sorted(KERNEL_SCHEDULERS))
def test_full_run_parity(sched_name, model_name, lane):
    scheduler_factory = KERNEL_SCHEDULERS[sched_name]
    model_factory = MODEL_FACTORIES[model_name]
    run, gen = _run_lane(lane, scheduler_factory, model_factory, seed=5)
    reference, gen_ref = _run_once(
        scheduler_factory, model_factory, seed=5, runner=run_reference
    )
    assert run.delivered == reference.delivered
    assert run.remaining == reference.remaining
    assert run.slots_used == reference.slots_used
    assert run.history == reference.history
    assert gen.bit_generator.state == gen_ref.bit_generator.state


@pytest.mark.parametrize("sched_name", ["mac-backoff", "round-robin"])
def test_mac_only_schedulers_unaffected_by_reference_mode(sched_name):
    """The MAC-specialised schedulers bypass the fused loop; reference
    mode must be a no-op for them."""
    factory = {
        "mac-backoff": lambda: MacBackoffScheduler(),
        "round-robin": lambda: RoundRobinScheduler(),
    }[sched_name]
    model_factory = MODEL_FACTORIES["mac"]
    vectorized, _ = _run_once(factory, model_factory, seed=9)
    with scalar_reference():
        reference, _ = _run_once(factory, model_factory, seed=9)
    assert vectorized.delivered == reference.delivered
    assert vectorized.remaining == reference.remaining
    assert vectorized.slots_used == reference.slots_used
    assert vectorized.history == reference.history


def _rayleigh_model():
    net = random_sinr_network(12, rng=3)
    return RayleighFadingSinrModel(net, alpha=3.0, beta=1.0, noise=0.02,
                                   rng=41)


#: Every registry model plus a fading SINR model, whose evaluator
#: reaches ``SinrModel.successes_mask`` and draws fades per slot.
EVALUATOR_FACTORIES = {**MODEL_FACTORIES, "rayleigh": _rayleigh_model}


def _slot_sets(rng, k):
    """One drain step's transmitter sets over ``k`` busy links: all of
    them, one of them, and a random non-empty subset."""
    mask = rng.random(k) < rng.uniform(0.0, 1.0)
    mask[rng.integers(k)] = True
    return [np.arange(k), np.array([rng.integers(k)]), mask.nonzero()[0]]


@pytest.mark.parametrize("model_name", sorted(EVALUATOR_FACTORIES))
def test_successes_local_matches_successes(model_name):
    """Through drains, each slot's verdicts equal scalar ``successes()``.

    The first drain starts from every link and drops one per step; the
    others start from random busy sets and drop random subsets. Every
    step asks an all-transmit, a one-transmitter and a random slot.
    Stateful models (loss coins, jammer clock, fades) are compared
    across twin instances, so both sides consume identical streams.
    """
    factory = EVALUATOR_FACTORIES[model_name]
    rng = np.random.default_rng(123)
    batch_model = factory()
    scalar_model = factory()
    m = batch_model.num_links
    for drain in range(4):
        if drain == 0:
            busy = np.arange(m, dtype=np.int64)
        else:
            busy = np.sort(rng.choice(m, size=rng.integers(1, m + 1),
                                      replace=False))
        evaluator = batch_model.batch_evaluator(busy)
        while busy.size:
            for att_idx in _slot_sets(rng, busy.size):
                ids = busy[att_idx].tolist()
                got = evaluator.successes_local(att_idx)
                expected = scalar_model.successes(ids)
                assert got.dtype == bool and got.shape == att_idx.shape
                assert got.tolist() == [e in expected for e in ids]
            if drain == 0:
                keep = np.ones(busy.size, dtype=bool)
                keep[rng.integers(busy.size)] = False
            else:
                keep = rng.random(busy.size) < 0.7
            busy = busy[keep]
            evaluator.drop(keep)
            assert evaluator.busy.tolist() == busy.tolist()


def test_affectance_sums_rows_in_ascending_link_order():
    """Scalar criterion, evaluator and both backends sum each row over
    the transmitters in ascending link order.

    A set of ints iterates in hash order, which is not ascending once
    ids pass its table size: ``{3, 5, 500}`` iterates 3, 500, 5. The
    two orders round link 3's impact to either side of the threshold.
    """
    m = 501
    weights = np.eye(m)
    weights[3, 5], weights[3, 500] = 0.2, 0.4
    assert list({3, 5, 500}) == [3, 500, 5]
    hash_order = ((1.0 + 0.4) + 0.2) - 1.0
    assert ((1.0 + 0.2) + 0.4) - 1.0 > hash_order
    model = AffectanceThresholdModel(mac_network(m), weights,
                                     threshold=hash_order)
    assert model.successes([3, 5, 500]) == {5, 500}
    evaluator = model.batch_evaluator(np.array([3, 5, 500]))
    assert evaluator.successes_local(np.arange(3)).tolist() == [
        False, True, True]
    runs = []
    for context in (use_backend("numpy"), scalar_reference()):
        with context:
            result = SingleHopScheduler().run(model, [3, 5, 500], 10)
        runs.append((result.delivered, result.slots_used))
    assert runs[0] == runs[1] == ([1, 2, 0], 2)


@pytest.mark.parametrize("model_name", sorted(EVALUATOR_FACTORIES))
def test_successes_mask_matches_successes(model_name):
    """Random active sets: ``successes_mask`` equals ``successes``.

    Covers the two implementations: SINR's (plain and faded) and the
    base default every other model inherits. Stateful models (loss
    coins, jammer clock, fades) are compared across twin instances.
    """
    factory = EVALUATOR_FACTORIES[model_name]
    rng = np.random.default_rng(123)
    mask_model = factory()
    scalar_model = factory()
    m = mask_model.num_links
    for _ in range(60):
        active = rng.random(m) < rng.uniform(0.0, 1.0)
        got = mask_model.successes_mask(active)
        expected = scalar_model.successes(
            [int(e) for e in np.flatnonzero(active)]
        )
        assert set(np.flatnonzero(got).tolist()) == expected
        # Successes are always a subset of the active set.
        assert not (got & ~active).any()


def test_mac_backoff_bincount_stage1_matches_bucket_walk():
    """The no-history bincount sifting path (the production path) must
    serve the same packets in the same order as the history-recording
    bucket walk, from the same seed.

    The budget is capped inside stage 1 so the comparison is exact:
    stage 2 legitimately diverges between history modes (the recording
    branch draws extra `choice` samples).
    """
    import math

    model = MODEL_FACTORIES["mac"]()
    scheduler = MacBackoffScheduler()
    rng = np.random.default_rng(31)
    # Stage 1 only engages above the stage-2 takeover population
    # (~1100 packets at the default phi/delta), so go big.
    requests = list(rng.integers(0, model.num_links, size=3000))
    n = len(requests)
    factor = scheduler._survival_factor()
    stage1_total = sum(
        max(1, math.floor(factor**i * n))
        for i in range(1, scheduler._stage1_rounds(n) + 1)
    )
    assert stage1_total > 2, "instance too small to exercise stage 1"
    budget = stage1_total - 1  # stays inside stage 1, cuts a round short
    fast = scheduler.run(
        model, requests, budget, rng=np.random.default_rng(8)
    )
    slow = scheduler.run(
        model,
        requests,
        budget,
        rng=np.random.default_rng(8),
        record_history=True,
    )
    assert fast.delivered == slow.delivered
    assert fast.remaining == slow.remaining
    assert fast.slots_used == slow.slots_used


def test_successes_mask_empty_and_shape():
    """Both implementations: the base default and SINR's."""
    from repro.errors import SchedulingError

    for model in (_explicit_model(), _sinr_model()):
        empty = model.successes_mask(np.zeros(model.num_links, dtype=bool))
        assert not empty.any()
        with pytest.raises(SchedulingError):
            model.successes_mask(np.zeros(model.num_links + 1, dtype=bool))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    threshold=st.floats(min_value=0.2, max_value=2.0),
    density=st.floats(min_value=0.05, max_value=0.95),
)
def test_affectance_mask_property(seed, threshold, density):
    """Property sweep: random W, threshold, busy set and transmit mask;
    the affectance evaluator's verdicts equal the scalar criterion."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 14))
    model = AffectanceThresholdModel(
        mac_network(m), _random_weights(m, seed=seed), threshold=threshold
    )
    busy = np.flatnonzero(rng.random(m) < 0.8)
    transmit = rng.random(busy.size) < density
    if not transmit.any():
        return
    att_idx = transmit.nonzero()[0]
    ids = busy[att_idx].tolist()
    got = model.batch_evaluator(busy).successes_local(att_idx)
    expected = model.successes(ids)
    assert got.tolist() == [e in expected for e in ids]


def test_batch_evaluator_incremental_drop():
    """The cached-submatrix evaluator stays correct as links drain."""
    model = _affectance_model()
    busy = np.arange(model.num_links, dtype=np.int64)
    evaluator = model.batch_evaluator(busy)
    rng = np.random.default_rng(6)
    while busy.size > 1:
        att_idx = (rng.random(busy.size) < 0.6).nonzero()[0]
        if att_idx.size:
            got = evaluator.successes_local(att_idx)
            expected = model.successes(busy[att_idx].tolist())
            assert set(busy[att_idx][got].tolist()) == expected
        keep = np.ones(busy.size, dtype=bool)
        keep[int(rng.integers(busy.size))] = False
        busy = busy[keep]
        evaluator.drop(keep)


# ----------------------------------------------------------------------
# Whole runs on the banded 500-link contention instance vs the oracle
# ----------------------------------------------------------------------
#
# The lane tests above run 25-request drains. These put the library
# through the regime the KV recurrence is built for — hundreds of busy
# links in standing contention, long idle streaks, recoveries every
# slot — inside the full dynamic protocol, and compare it with the same
# protocol driving a scheduler whose ``run`` is the per-slot
# transcription. The oracle shares no policy object with the library,
# so a fault in a policy's own recurrence shows here even though the
# numpy-vs-scalar tests (which drive one policy) pass. The oracle
# evaluates slots with scalar ``successes()``, so the library's
# affectance batch evaluator is checked against the model's predicate,
# not against itself.

BANDED_LINKS = 500
BANDED_FRAME = FrameParameters(
    frame_length=1000, phase1_budget=900, cleanup_budget=80,
    measure_budget=30.0, epsilon=0.5, rate=0.2, f_m=1.0, m=BANDED_LINKS,
)


def _banded_model(reach=BANDED_LINKS, base=0.15, exponent=0.3):
    """Impact decaying geometrically with link distance, unit diagonal:
    slow decay keeps a few hundred links competing all run."""
    idx = np.arange(BANDED_LINKS)
    distance = np.abs(idx[:, None] - idx[None, :]).astype(float)
    matrix = base / (1.0 + distance) ** exponent
    matrix[distance > reach] = 0.0
    np.fill_diagonal(matrix, 1.0)
    return AffectanceThresholdModel(mac_network(BANDED_LINKS), matrix)


def _oracle(scheduler_class):
    """``scheduler_class`` with its ``run`` replaced by the oracle."""
    def run(self, model, requests, budget, rng=None, record_history=False):
        return run_reference(self, model, requests, budget, rng=rng,
                             record_history=record_history, batch=False)
    return type(f"Oracle{scheduler_class.__name__}", (scheduler_class,),
                {"run": run})


@pytest.mark.parametrize("recovery_slots", [8, 2])
def test_banded_kv_stability_run_matches_oracle(recovery_slots):
    def stability_run(scheduler_class):
        model = _banded_model()
        injection = uniform_pair_injection(
            build_routing_table(model.network), model, BANDED_FRAME.rate,
            num_generators=8, rng=1017,
        )
        gen = np.random.default_rng(17)
        protocol = DynamicProtocol(
            model, scheduler_class(recovery_slots=recovery_slots),
            BANDED_FRAME.rate, params=BANDED_FRAME, rng=gen,
            store=injection.store,
        )
        with use_backend("numpy"):
            FrameSimulation(protocol, injection).run(6)
        return ([p.id for p in protocol.delivered], protocol.packets_in_system,
                protocol.potential.total_failures, gen.bit_generator.state)

    library = stability_run(KvScheduler)
    assert library[2] > 0, "the instance must produce phase-1 failures"
    assert library == stability_run(_oracle(KvScheduler))


@pytest.mark.parametrize("scheduler_class, model_kwargs", [
    (DecayScheduler, {}),
    # Steeper decay, so all-transmit slots partially succeed.
    (SingleHopScheduler, dict(reach=40, base=0.5, exponent=1.5)),
], ids=["decay", "single-hop"])
def test_banded_static_drain_matches_oracle(scheduler_class, model_kwargs):
    model = _banded_model(**model_kwargs)
    requests = list(
        np.random.default_rng(23).integers(0, BANDED_LINKS, size=4000)
    )

    def drain(cls):
        gen = np.random.default_rng(29)
        with use_backend("numpy"):
            result = cls().run(model, requests, 1200, rng=gen)
        return (result.delivered, result.remaining, result.slots_used,
                gen.bit_generator.state)

    library = drain(scheduler_class)
    assert library[0], "the drain must deliver"
    assert library == drain(_oracle(scheduler_class))
