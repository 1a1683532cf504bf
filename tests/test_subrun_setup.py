"""A fused run's set-up: busy-only queues, lazy SINR tables, the guard.

Pins the contracts that let a short run (a Section-3 transform sub-run)
set up in time proportional to its own requests and busy links:

* ``busy_csr`` — the request intake of ``FusedTask``, hence of every
  fused scheduler's ``run`` — rejects exactly what ``LinkQueues``
  rejects, with the same message, on both backends, and runs an empty
  request list;
* the SINR batch evaluator gathers its gain submatrix over the initial
  busy set on the first slot with two or more transmitters, so a slot
  after drains still equals the scalar ``successes()``;
* the model's per-link lone-transmitter table equals the per-busy
  derivation bit for bit, ``beta·noise`` edge cases included;
* a coin exactly on a band edge ``lp ± GUARD_BAND`` makes decay fall
  back to the exact measure, for one depth and for several.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError, SchedulingError
from repro.sinr.model import SinrModel, _SinrBatchEvaluator, _sinr_feasible
from repro.sinr.power import ExplicitPower
from repro.staticsched import DecayScheduler, HmScheduler, KvScheduler
import repro.staticsched.runloop as runloop
from repro.staticsched.base import LinkQueues, busy_csr
from repro.staticsched.runloop import (
    FusedTask,
    scalar_reference,
    use_backend,
)
from test_kernel_parity import _sinr_model
from test_runloop import _affectance_model, _lone_boundary_model, _outcome


# ----------------------------------------------------------------------
# Request intake
# ----------------------------------------------------------------------

NUM_LINKS = 10

BAD_REQUESTS = {
    "2-d": [[0, 1], [1, 0]],
    "negative": [3, 0, -1, 2],
    "negative-not-first-sorted": [5, -1, 3, -2],
    "id-equals-num-links": [0, NUM_LINKS, 1],
    "id-past-num-links": np.array([4, 2, 99], dtype=np.int32),
    "huge-unsigned": np.array([1, 2**63 + 5], dtype=np.uint64),
    "nan": [1.0, float("nan"), 2.0],
    "fraction-below-zero": [1.0, -0.9],
}


def _link_queues_error(requests) -> str:
    with pytest.raises(SchedulingError) as error:
        LinkQueues(requests, NUM_LINKS)
    return str(error.value)


@pytest.mark.parametrize("scalar", [False, True], ids=["numpy", "scalar"])
@pytest.mark.parametrize("case", sorted(BAD_REQUESTS))
def test_fused_task_rejects_requests_like_link_queues(case, scalar):
    requests = BAD_REQUESTS[case]
    want = _link_queues_error(requests)
    model = _affectance_model(m=NUM_LINKS)
    for policy in (DecayScheduler().fused_policy(),
                   KvScheduler().fused_policy()):
        with pytest.raises(SchedulingError) as error:
            FusedTask(policy, model, requests, 50,
                      np.random.default_rng(0), scalar=scalar)
        assert str(error.value) == want
    with pytest.raises(SchedulingError) as error:
        busy_csr(requests, NUM_LINKS)
    assert str(error.value) == want


@pytest.mark.parametrize("case", sorted(BAD_REQUESTS))
def test_kv_run_rejects_requests_like_link_queues(case):
    requests = BAD_REQUESTS[case]
    want = _link_queues_error(requests)
    with use_backend("numpy"), pytest.raises(SchedulingError) as error:
        KvScheduler().run(_affectance_model(m=NUM_LINKS), requests, 50,
                          rng=np.random.default_rng(0))
    assert str(error.value) == want


@pytest.mark.parametrize("requests", [
    [4, 1, 4, 4, 0, 9, 1],
    np.array([7, 7, 2], dtype=np.int16),
    [3.0, 1.0, 3.0],
    [True, False, True],
    [6],
], ids=["ints", "int16", "floats", "bools", "one"])
def test_busy_csr_matches_link_queues(requests):
    """Busy links, FIFO order and group bounds are those of
    ``LinkQueues`` restricted to the busy links."""
    order, busy, starts, ends = busy_csr(requests, NUM_LINKS)
    queues = LinkQueues(requests, NUM_LINKS)
    assert busy.tolist() == queues.busy_links()
    assert order.tolist() == queues.remaining_indices()
    depths = [queues.queue_length(link) for link in busy.tolist()]
    assert (ends - starts).tolist() == depths
    assert starts.tolist() == [0] + np.cumsum(depths)[:-1].tolist()
    for link, start in zip(busy.tolist(), starts.tolist()):
        assert order[start] == queues.head(link)
    assert busy.dtype == starts.dtype == ends.dtype == np.int64


@pytest.mark.parametrize("factory", [
    DecayScheduler, KvScheduler, HmScheduler,
], ids=["decay", "kv", "hm"])
@pytest.mark.parametrize("model_factory", [
    lambda: _affectance_model(m=NUM_LINKS), _sinr_model,
], ids=["affectance", "sinr"])
def test_empty_request_list_runs_nothing(factory, model_factory):
    model = model_factory()
    outcomes = []
    for backend in ("numpy", "scalar"):
        gen = np.random.default_rng(5)
        with use_backend(backend):
            result = factory().run(model, [], 40, rng=gen,
                                   record_history=True)
        outcomes.append(_outcome(result, gen))
        assert result.delivered == result.remaining == []
        assert result.slots_used == 0
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][4] == np.random.default_rng(5).bit_generator.state


# ----------------------------------------------------------------------
# The SINR batch evaluator's lazy gather
# ----------------------------------------------------------------------


def _scalar_mask(model, ids, transmit):
    winners = model.successes(ids[transmit].tolist())
    return np.array([int(e) in winners for e in ids]) & transmit


@pytest.mark.parametrize("seed", range(6))
def test_gather_after_drains_matches_scalar_successes(seed):
    """Drop links before the first multi-transmitter slot, then drop
    more between slots: every slot equals ``successes()`` on the
    surviving busy links."""
    model = _sinr_model()
    rng = np.random.default_rng(seed)
    busy = np.sort(rng.choice(model.num_links, size=9, replace=False))
    evaluator = model.batch_evaluator(busy)
    ids = busy
    first = True
    while ids.size >= 2:
        keep = rng.random(ids.size) < 0.8
        keep[rng.integers(ids.size)] = True
        if first:
            # A drain before any gather, so the gather maps survivors
            # into the initial busy set.
            keep[rng.integers(ids.size)] = False
            keep[int(np.flatnonzero(keep)[0])] = True
        evaluator.drop(keep)
        ids = ids[keep]
        if first:
            assert evaluator._gains is None
            first = False
        transmit = rng.random(ids.size) < 0.7
        transmit[:2] = True
        att_idx = transmit.nonzero()[0]
        got = evaluator.successes_local(att_idx)
        want = _scalar_mask(model, ids, transmit)[att_idx]
        assert got.tolist() == want.tolist()
        assert evaluator._gains.shape == (busy.size, busy.size)


def test_run_drained_before_first_multi_slot_matches_reference(monkeypatch):
    """Decay runs where links drain before the first slot with two or
    more transmitters replay the scalar reference, and such slots do
    occur (the gather then follows drops)."""
    model = _sinr_model()
    seen = []
    successes_local = _SinrBatchEvaluator.successes_local

    def traced(self, att_idx):
        if att_idx.size >= 2:
            seen.append((self._gains is None,
                         self._cols.size < self._initial.size))
        return successes_local(self, att_idx)

    monkeypatch.setattr(_SinrBatchEvaluator, "successes_local", traced)
    for seed in range(8):
        requests = np.random.default_rng(seed).integers(
            0, model.num_links, size=30).tolist()
        gen = np.random.default_rng(seed + 100)
        with scalar_reference():
            reference = _outcome(
                DecayScheduler(probability_scale=2.0).run(
                    model, requests, 4000, rng=gen, record_history=True),
                gen)
        gen = np.random.default_rng(seed + 100)
        with use_backend("numpy"):
            run = DecayScheduler(probability_scale=2.0).run(
                model, requests, 4000, rng=gen, record_history=True)
        assert _outcome(run, gen) == reference
    # Some gathers happened only after the busy set had shrunk.
    assert (True, True) in seen


# ----------------------------------------------------------------------
# The per-model lone-transmitter table
# ----------------------------------------------------------------------


def _per_busy_lone(model, busy):
    """The per-run derivation the table replaces: the busy-set gains'
    diagonal, the slot evaluation's ops over one transmitter."""
    gains = model._gains[np.ix_(busy, busy)]
    signal = model._powers[busy] * gains.diagonal()
    return _sinr_feasible(signal, signal - signal, model.beta, model.noise)


def test_inf_power_model_is_rejected():
    """A model with an infinite power cannot be built, so no lone
    verdict is ever derived from ``inf - inf``."""
    base = _lone_boundary_model()
    powers = base.powers.copy()
    powers[1] = np.inf
    with pytest.raises(ConfigurationError, match="finite"):
        SinrModel(base.network, beta=base.beta, noise=base.noise,
                  power=ExplicitPower(powers),
                  weight_matrix=base.weight_matrix())


@pytest.mark.parametrize("model_factory", [
    _lone_boundary_model, _sinr_model,
], ids=["beta-noise-edge", "sinr-linear"])
def test_lone_table_equals_per_busy_derivation(model_factory):
    model = model_factory()
    table = model.lone_verdicts()
    m = model.num_links
    assert table.shape == (m,) and not table.flags.writeable
    rng = np.random.default_rng(1)
    subsets = [np.arange(m)] + [
        np.sort(rng.choice(m, size=rng.integers(1, m + 1), replace=False))
        for _ in range(20)
    ]
    for busy in subsets:
        assert table[busy].tobytes() == _per_busy_lone(model, busy).tobytes()
    # And each entry is the scalar verdict of the link alone.
    assert table.tolist() == [model.singleton_succeeds(e) for e in range(m)]
    # A one-transmitter slot reads the table, by link id, after drops.
    for busy in subsets:
        evaluator = model.batch_evaluator(busy)
        keep = rng.random(busy.size) < 0.7
        evaluator.drop(keep)
        for j, e in enumerate(busy[keep].tolist()):
            got = evaluator.successes_local(np.array([j]))
            assert got.tolist() == [table[e]]
        assert evaluator._gains is None


def test_lone_table_is_built_once_per_model():
    model = _lone_boundary_model()
    first = model.batch_evaluator(np.arange(3))
    second = model.batch_evaluator(np.arange(1, 5))
    assert first._lone_ok is second._lone_ok is model.lone_verdicts()


# ----------------------------------------------------------------------
# The guard at the band edges
# ----------------------------------------------------------------------


@pytest.mark.parametrize("edge", [-1.0, 1.0], ids=["low", "high"])
@pytest.mark.parametrize("depth, at", [
    (1, 1), (4, 1), (4, 3), (4, 4),
], ids=["one-depth", "several-d1", "several-d3", "several-dmax"])
def test_coin_on_a_band_edge_forces_the_exact_measure(depth, at, edge):
    model = _affectance_model(m=12, seed=5)
    requests = list(range(11)) + [11] * depth
    band = runloop.GUARD_BAND

    def guarded(coin):
        policy = DecayScheduler(8.0).fused_policy()
        task = FusedTask(policy, model, requests, 0,
                         np.random.default_rng(0))
        assert not policy.certified
        assert int(task.depths.max()) == depth
        coins = np.random.default_rng(2).random(96)
        coins[17] = coin
        return policy, policy.guard(coins, task.depths)

    policy, _ = guarded(0.5)
    ladder = 1.0 - policy.complement ** np.arange(1, depth + 1)
    on_edge = float(ladder[at - 1]) + edge * band
    policy, fell_back = guarded(on_edge)
    assert fell_back and policy.certified
    assert policy.measure == model.interference_measure(requests)
    # One ulp outside the closed band, the coin is cleared (unless the
    # uniform filler happens to sit in a band, which seed 2 avoids).
    outside = np.nextafter(on_edge, edge * np.inf)
    policy, fell_back = guarded(outside)
    assert not fell_back and not policy.certified
